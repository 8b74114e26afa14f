module raqo/bench

go 1.22

require raqo v0.0.0

replace raqo => ../
