module consim/benchmark

go 1.22

require consim v0.0.0

replace consim => ../
