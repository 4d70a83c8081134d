// The benchmark is a module of its own so that building and testing the
// repository (go build ./... && go test ./...) never compiles or runs it.
// Its import path sits under "gendt/", which is what lets it import the
// repository's internal packages through the replace directive below.
module gendt/benchmark

go 1.22

require gendt v0.0.0

replace gendt => ../
