module mrts/benchmark

go 1.22

require mrts v0.0.0

replace mrts => ../
