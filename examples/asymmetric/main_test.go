package main

// Example pins the program's output byte for byte: the simulation replays
// exactly by seed, so any change in the printed table is a behaviour change.
func Example() {
	main()
	// Output:
	// asymmetric 3x4 fabric, cache-follower workload @ 50% load, 4 seeds
	//
	// scheme       afct(ms)   p99(ms)    ooo(%)   pauses
	// drill           1.325     9.909     57.98     1064
	// drill+rlb       1.279     9.823     56.54      271
}
