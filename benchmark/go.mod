module wflocks/benchmark

go 1.23

require wflocks v0.0.0

replace wflocks => ../
