package main

// metricDef is one declared metric. The two lists below are the
// benchmark's vocabulary: BENCHMARK.json repeats them (with the bounds,
// which live only there) and the package test holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEndMetrics are reported per workload by an untraced run.
// failed_share is reported beside them in the output document but is
// not declared: the contract wants metrics that are never 0, and carries
// failures in its own attempted/failed fields.
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"records_per_s", "1/s", "higher"},
	{"alloc_bytes_per_record", "B", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerMetrics are reported by a traced run: first the ones derived
// per workload from what the pipelines return, then the kmeans-tcp
// registry series, then the layer probes, then the two overhead ratios.
var perLayerMetrics = []metricDef{
	{"gepeto.driver_share", "ratio", "lower"},
	{"mapreduce.map_share", "ratio", "lower"},
	{"mapreduce.shuffle_share", "ratio", "lower"},
	{"mapreduce.reduce_share", "ratio", "lower"},
	{"mapreduce.job_overhead_share", "ratio", "lower"},
	{"mapreduce.jobs", "count", "lower"},
	{"mapreduce.map_tasks", "count", "lower"},
	{"mapreduce.reduce_tasks", "count", "lower"},
	{"mapreduce.task_attempts_failed", "count", "lower"},
	{"mapreduce.data_local_share", "ratio", "higher"},
	{"mapreduce.map_task_p50_ms", "ms", "lower"},
	{"mapreduce.map_task_max_ms", "ms", "lower"},
	{"mapreduce.slot_busy_share", "ratio", "higher"},
	{"mapreduce.combine_ratio", "ratio", "lower"},
	{"mapreduce.shuffle_records", "count", "lower"},
	{"mapreduce.shuffle_bytes", "B", "lower"},
	{"mapreduce.shuffle_runs_merged", "count", "lower"},
	{"mapreduce.spill_files", "count", "lower"},
	{"mapreduce.spill_bytes", "B", "lower"},
	{"mapreduce.records_per_spill_file", "count", "higher"},
	{"dfs.bytes_read", "B", "lower"},
	{"dfs.bytes_written", "B", "lower"},
	{"dfs.chunks_read", "count", "lower"},
	{"dfs.read_amplification", "ratio", "lower"},
	{"runtime.mallocs_per_record", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.cpu_s_per_mrecord", "s", "lower"},
	{"runtime.peak_heap_bytes", "B", "lower"},
	{"runtime.peak_rss_bytes", "B", "lower"},

	{"cluster.rpc.calls_per_iter", "count", "lower"},
	{"cluster.rpc.dfs_read_calls_per_iter", "count", "lower"},
	{"cluster.rpc.dfs_read_bytes_per_iter", "B", "lower"},
	{"cluster.rpc.dfs_create_calls_per_iter", "count", "lower"},
	{"cluster.rpc.assign_bytes_per_task", "B", "lower"},
	{"cluster.rpc.server_busy_share", "ratio", "lower"},
	{"cluster.rpc.call_errors", "count", "lower"},
	{"cluster.rpc.retries", "count", "lower"},
	{"cluster.rpc.dup_completions", "count", "lower"},
	{"cluster.rpc.lost_workers", "count", "lower"},

	{"dfs.read_range_mb_per_s", "MB/s", "higher"},
	{"dfs.read_sniff_us", "us", "lower"},
	{"dfs.create_mb_per_s", "MB/s", "higher"},
	{"recordio.decode_text_ns", "ns", "lower"},
	{"recordio.decode_binary_ns", "ns", "lower"},
	{"recordio.scan_mb_per_s", "MB/s", "higher"},
	{"recordio.write_mb_per_s", "MB/s", "higher"},
	{"recordio.compress_mb_per_s", "MB/s", "higher"},
	{"recordio.compress_ratio", "ratio", "lower"},
	{"recordio.fileread_mb_per_s", "MB/s", "higher"},
	{"recordio.small_run_us", "us", "lower"},
	{"mapreduce.merge_records_per_s", "1/s", "higher"},
	{"mapreduce.identity_shuffle_ns", "ns", "lower"},
	{"mapreduce.identity_maponly_ns", "ns", "lower"},
	{"mapreduce.empty_job_ms", "ms", "lower"},
	{"cluster.rpc.tcp_rtt_p50_us", "us", "lower"},
	{"cluster.rpc.tcp_rtt_p99_us", "us", "lower"},
	{"cluster.rpc.mem_rtt_p50_us", "us", "lower"},
	{"cluster.rpc.remote_read_mb_per_s", "MB/s", "higher"},
	{"gepeto.kmeans_seq_ns", "ns", "lower"},
	{"gepeto.sample_seq_ns", "ns", "lower"},
	{"gepeto.djcluster_seq_ns", "ns", "lower"},
	{"rtree.bulkload_ns", "ns", "lower"},
	{"rtree.within_us", "us", "lower"},
	{"rtree.decode_ms", "ms", "lower"},
	{"sfc.zorder_ns", "ns", "lower"},
	{"geo.sqeuclid_ns", "ns", "lower"},
	{"geo.haversine_ns", "ns", "lower"},
	{"synth.generate_records_per_s", "1/s", "higher"},
	{"geolife.generate_records_per_s", "1/s", "higher"},
	{"geolife.upload_mb_per_s", "MB/s", "higher"},
	{"obs.trace_overhead_ratio", "ratio", "lower"},

	{"harness.trace_overhead_ratio", "ratio", "lower"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
