package main

// Which end-to-end metric each per-layer metric should move, and on which
// workload (a change claimed for one layer is checked against this map):
//
//	core.import_s, sortstore.replica_build_s,
//	histogram.build_ms_per_region,
//	bitindex.build_ms_per_region   setup_s               vpic-scan, vpic-select
//	client.allocs_per_op,
//	client.kb_per_op               op_p50_ms, ops_per_s  vpic-scan
//	client.self_ms_per_op          op_p50_ms             vpic-select
//	transport.*                    op_p50_ms, op_p99_ms  vpic-select
//	server.phase.region_exec_vns   modeled_ms_per_query  vpic-scan, cluster-text
//	sched.busy_per_op,
//	sched.queue_high_water         op_p99_ms, failed     vpic-select
//	exec.eval_*, exec.scan_gb_s,
//	exec.elems_per_hit,
//	exec.regions_pruned_frac       op_p50_ms, ops_per_s  vpic-scan
//	exec.cache.hit_ratio,
//	exec.cache.evictions_per_op    ops_per_s             vpic-select
//	simio.read_*                   modeled_ms_per_query  vpic-scan, cluster-text
//	qlang.parse_lower_us,
//	plan.build_us,
//	plan.cache_hit_ratio           op_p50_ms             cluster-text
//	cluster.import_mb              setup_s               cluster-text
//	cluster.transfer_mb            ops_per_s             cluster-text
//	cluster.retries_per_op         op_p99_ms             cluster-text
//	vclock.*                       op_p50_ms             cluster-text (auto plans choose by the model)
//	trace.overhead_frac            the budget for spans inside the program
//
// Every workload emits every metric; one that a workload does not
// exercise reads 0 there (cluster.* outside cluster-text, for example).
// The per-op-type medians (count, select, getdata, hist and text
// _p50_ms), failed_ops_frac with its per-type breakdown,
// cluster.import_s, cluster.rebalance_ms and the server phases the cost
// model charges nothing for are printed in the report only.
