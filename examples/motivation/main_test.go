package main

// Example pins the program's output byte for byte: the simulation replays
// exactly by seed, so any change in the printed table is a behaviour change.
func Example() {
	main()
	// Output:
	// Fig. 2 scenario: 8 parallel paths, 10 background pairs, bursts + 1 elephant
	//
	// scheme   pfc   pauses/ms    p99 OOD   afct(ms)    p99(ms)
	// presto   on         91.2        210      1.809      5.963
	// presto   off         0.0         40      0.901      3.041
	// letflow  on        114.8        195      2.023      8.067
	// letflow  off         0.0          0      1.237      4.603
	// hermes   on         77.8         89      0.881      3.403
	// hermes   off         0.0         34      1.710      7.082
	// drill    on        459.5        245      4.200     10.259
	// drill    off         0.0         26      0.547      1.852
	//
	// PFC pausing inflates out-of-order degree and tail FCT for every
	// PFC-oblivious scheme — the problem RLB's prediction removes.
}
