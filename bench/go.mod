// The benchmark is its own module so that it builds from its own
// directory; the module path sits under armada/ so that the traced pass may
// import the few armada/internal functions README.md lists.
module armada/bench

go 1.24

require armada v0.0.0

replace armada => ../
