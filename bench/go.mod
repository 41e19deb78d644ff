module micromama/bench

go 1.22

require micromama v0.0.0

replace micromama => ../
