module relaxedbvc/benchmark

go 1.22

require relaxedbvc v0.0.0

replace relaxedbvc => ../
