module aggview/bench

go 1.22

require aggview v0.0.0

replace aggview => ../
