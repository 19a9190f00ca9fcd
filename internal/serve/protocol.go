// Package serve is the network-facing KV/cache service: a small
// RESP-subset text protocol (GET/SET/DEL/PING/STATS) over TCP, executed
// against a wait-free Map or Cache backend (or a mutex baseline, for
// the head-to-head tail latency comparison the load harness exists to
// make). Each connection's writer runs the connection's requests one at
// a time in request order, so a pipelining client gets its replies in
// order and reads its own writes; distinct connections run
// concurrently, and a stalled lock holder on one is helped past by the
// others.
//
// The protocol is the well-known Redis shape, restricted to what a KV
// service needs. Requests arrive either as RESP arrays
// ("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n") or as inline commands
// ("SET k v\r\n"); replies are RESP simple strings, errors, integers
// and bulk strings. SET takes an optional "PX <milliseconds>"
// time-to-live, honored by the cache backend and rejected by backends
// that cannot expire.
package serve

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Op enumerates the protocol's commands.
type Op uint8

// The command set.
const (
	OpGet Op = iota + 1
	OpSet
	OpDel
	OpPing
	OpStats
)

// String names the op for stats and error messages.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpDel:
		return "DEL"
	case OpPing:
		return "PING"
	case OpStats:
		return "STATS"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Request is one parsed command.
type Request struct {
	Op  Op
	Key string
	Val string
	// TTL is SET's optional PX argument; zero means no per-entry TTL.
	TTL time.Duration
}

// protoError is a client-visible command error: the server replies
// "-ERR ..." and keeps the connection; anything else tears it down.
type protoError struct{ msg string }

func (e *protoError) Error() string { return e.msg }

// protoErrorf builds a client-visible error.
func protoErrorf(format string, args ...any) error {
	return &protoError{msg: fmt.Sprintf(format, args...)}
}

// IsProtoError reports whether err is a recoverable command error whose
// message should be sent to the client as an -ERR reply.
func IsProtoError(err error) bool {
	var pe *protoError
	return errors.As(err, &pe)
}

// Framing limits. Lines and bulk strings beyond these are a malformed
// or hostile peer; the connection is closed.
const (
	maxLineBytes = 4096
	maxArrayLen  = 8
)

// readLine reads one CRLF-terminated line, excluding the terminator.
// The maxLineBytes bound is enforced while reading (ReadSlice fills at
// most one bufio buffer per call), so a peer streaming bytes with no
// newline cannot grow server memory past the limit.
func readLine(r *bufio.Reader) (string, error) {
	var line []byte
	for {
		frag, err := r.ReadSlice('\n')
		if len(line)+len(frag) > maxLineBytes {
			return "", fmt.Errorf("serve: protocol line exceeds %d bytes", maxLineBytes)
		}
		if err == nil {
			if line == nil {
				line = frag // common case: whole line in one buffer
			} else {
				line = append(line, frag...)
			}
			break
		}
		if err != bufio.ErrBufferFull {
			return "", err
		}
		line = append(line, frag...)
	}
	n := len(line)
	if n > 0 && line[n-1] == '\n' {
		n--
	}
	if n > 0 && line[n-1] == '\r' {
		n--
	}
	return string(line[:n]), nil
}

// ReadCommand reads one command in either accepted form. Errors
// satisfying IsProtoError are recoverable (reply -ERR, keep reading);
// all others are connection-fatal (malformed framing, I/O errors,
// deadline expiry).
func ReadCommand(r *bufio.Reader) (Request, error) {
	line, err := readLine(r)
	if err != nil {
		return Request{}, err
	}
	if len(line) == 0 {
		return Request{}, protoErrorf("empty command")
	}
	if line[0] != '*' {
		return parseArgs(strings.Fields(line))
	}
	n, err := strconv.Atoi(line[1:])
	if err != nil || n < 1 || n > maxArrayLen {
		return Request{}, fmt.Errorf("serve: bad array header %q", line)
	}
	args := make([]string, n)
	for i := 0; i < n; i++ {
		hdr, err := readLine(r)
		if err != nil {
			return Request{}, err
		}
		if len(hdr) < 2 || hdr[0] != '$' {
			return Request{}, fmt.Errorf("serve: bad bulk header %q", hdr)
		}
		bl, err := strconv.Atoi(hdr[1:])
		if err != nil || bl < 0 || bl > maxLineBytes {
			return Request{}, fmt.Errorf("serve: bad bulk length %q", hdr)
		}
		buf := make([]byte, bl+2)
		if _, err := readFull(r, buf); err != nil {
			return Request{}, err
		}
		if buf[bl] != '\r' || buf[bl+1] != '\n' {
			return Request{}, errors.New("serve: bulk string missing CRLF")
		}
		args[i] = string(buf[:bl])
	}
	return parseArgs(args)
}

// readFull fills buf from r (bufio.Reader has no ReadFull of its own).
func readFull(r *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		k, err := r.Read(buf[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// parseArgs assembles a Request from split arguments. Argument-count
// and argument-value problems are proto errors (the client hears -ERR
// and may continue); only framing problems tear the connection down.
func parseArgs(args []string) (Request, error) {
	if len(args) == 0 {
		return Request{}, protoErrorf("empty command")
	}
	cmd := strings.ToUpper(args[0])
	switch cmd {
	case "GET":
		if len(args) != 2 {
			return Request{}, protoErrorf("wrong number of arguments for GET")
		}
		return Request{Op: OpGet, Key: args[1]}, nil
	case "SET":
		if len(args) != 3 && len(args) != 5 {
			return Request{}, protoErrorf("wrong number of arguments for SET")
		}
		req := Request{Op: OpSet, Key: args[1], Val: args[2]}
		if len(args) == 5 {
			if strings.ToUpper(args[3]) != "PX" {
				return Request{}, protoErrorf("syntax error: expected PX, got %q", args[3])
			}
			ms, err := strconv.ParseInt(args[4], 10, 64)
			// A TTL past time.Duration's range would wrap to garbage.
			if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
				return Request{}, protoErrorf("invalid PX value %q", args[4])
			}
			req.TTL = time.Duration(ms) * time.Millisecond
		}
		return req, nil
	case "DEL":
		if len(args) != 2 {
			return Request{}, protoErrorf("wrong number of arguments for DEL")
		}
		return Request{Op: OpDel, Key: args[1]}, nil
	case "PING":
		if len(args) != 1 {
			return Request{}, protoErrorf("wrong number of arguments for PING")
		}
		return Request{Op: OpPing}, nil
	case "STATS":
		if len(args) != 1 {
			return Request{}, protoErrorf("wrong number of arguments for STATS")
		}
		return Request{Op: OpStats}, nil
	}
	return Request{}, protoErrorf("unknown command %q", args[0])
}

// Reply encoders: each appends one RESP reply to dst and returns the
// extended slice, so response buffers are reused across requests.

// AppendSimple appends "+s\r\n".
func AppendSimple(dst []byte, s string) []byte {
	dst = append(dst, '+')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// AppendError appends "-ERR msg\r\n".
func AppendError(dst []byte, msg string) []byte {
	dst = append(dst, "-ERR "...)
	dst = append(dst, msg...)
	return append(dst, '\r', '\n')
}

// AppendInt appends ":n\r\n".
func AppendInt(dst []byte, n int64) []byte {
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, '\r', '\n')
}

// AppendBulk appends "$len\r\ns\r\n".
func AppendBulk(dst []byte, s string) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// AppendNullBulk appends the RESP null bulk "$-1\r\n" (GET miss).
func AppendNullBulk(dst []byte) []byte {
	return append(dst, "$-1\r\n"...)
}

// AppendCommand appends args as a RESP array — the client-side encoder
// the load generator uses.
func AppendCommand(dst []byte, args ...string) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = AppendBulk(dst, a)
	}
	return dst
}

// ReplyKind tags a parsed reply.
type ReplyKind uint8

// The reply kinds a client can receive.
const (
	ReplySimple ReplyKind = iota + 1
	ReplyError
	ReplyInt
	ReplyBulk
	ReplyNull
)

// Reply is one parsed server reply (the client side of the protocol).
type Reply struct {
	Kind ReplyKind
	Str  string // simple/error/bulk payload
	Int  int64
}

// ReadReply parses one reply from r.
func ReadReply(r *bufio.Reader) (Reply, error) {
	line, err := readLine(r)
	if err != nil {
		return Reply{}, err
	}
	if len(line) == 0 {
		return Reply{}, errors.New("serve: empty reply line")
	}
	switch line[0] {
	case '+':
		return Reply{Kind: ReplySimple, Str: line[1:]}, nil
	case '-':
		return Reply{Kind: ReplyError, Str: strings.TrimPrefix(line[1:], "ERR ")}, nil
	case ':':
		n, err := strconv.ParseInt(line[1:], 10, 64)
		if err != nil {
			return Reply{}, fmt.Errorf("serve: bad integer reply %q", line)
		}
		return Reply{Kind: ReplyInt, Int: n}, nil
	case '$':
		bl, err := strconv.Atoi(line[1:])
		if err != nil || bl < -1 || bl > maxLineBytes {
			return Reply{}, fmt.Errorf("serve: bad bulk reply header %q", line)
		}
		if bl == -1 {
			return Reply{Kind: ReplyNull}, nil
		}
		buf := make([]byte, bl+2)
		if _, err := readFull(r, buf); err != nil {
			return Reply{}, err
		}
		if buf[bl] != '\r' || buf[bl+1] != '\n' {
			return Reply{}, errors.New("serve: bulk reply missing CRLF")
		}
		return Reply{Kind: ReplyBulk, Str: string(buf[:bl])}, nil
	}
	return Reply{}, fmt.Errorf("serve: unknown reply type %q", line)
}
