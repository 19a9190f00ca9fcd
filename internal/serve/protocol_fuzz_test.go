package serve

import (
	"bufio"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzReadCommand feeds the RESP parser arbitrary bytes. ReadCommand
// must never panic, and a request it accepts must survive a round trip
// through the array encoder unchanged: encoding its canonical arguments
// with AppendCommand and reading them back yields the same Request. The
// seed corpus (the protocol tests' wire inputs) runs in every go test.
func FuzzReadCommand(f *testing.F) {
	for _, wire := range []string{
		"SET key  value\r\n",
		"get key\n",
		"PING\r\n",
		"STATS\r\n",
		"DEL k\r\n",
		string(AppendCommand(nil, "SET", "k", "v", "PX", "1500")),
		string(AppendCommand(nil, "SET", "k", "a b\rc")),
		string(AppendCommand(nil, "GET", "")),
		"\r\n",
		"NOPE\r\n",
		"GET\r\n",
		"SET k v EX 10\r\n",
		"SET k v PX nope\r\n",
		"SET k v PX -5\r\n",
		"SET k v PX 9223372036854775807\r\n",
		"PING extra\r\n",
		"*x\r\n",
		"*99\r\n",
		"*1\r\nnope\r\n",
		"*1\r\n$-3\r\nab\r\n",
		"*1\r\n$2\r\nabXY",
	} {
		f.Add([]byte(wire))
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		req, err := ReadCommand(bufio.NewReader(strings.NewReader(string(wire))))
		if err != nil {
			return
		}
		args := []string{req.Op.String()}
		switch req.Op {
		case OpGet, OpDel:
			args = append(args, req.Key)
		case OpSet:
			args = append(args, req.Key, req.Val)
			if req.TTL != 0 {
				args = append(args, "PX", strconv.FormatInt(int64(req.TTL/time.Millisecond), 10))
			}
		}
		again, err := ReadCommand(bufio.NewReader(strings.NewReader(string(AppendCommand(nil, args...)))))
		if err != nil || again != req {
			t.Fatalf("%q parsed to %+v; its encoding %q read back as %+v, %v", wire, req, args, again, err)
		}
	})
}
