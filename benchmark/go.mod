module eventpf/benchmark

go 1.23

require eventpf v0.0.0

replace eventpf => ../
