//! Every metric the benchmark prints: `(name, unit, home workload)`. The
//! names and units here and in `BENCHMARK.json` are checked against each
//! other by `tests/quick.rs`.
//!
//! Every run reports every metric, because every run drives all four
//! stages. A metric's home workload is the one whose run gives its stage
//! the largest share of the window; the all-workloads command reports each
//! metric from there.

pub type Metric = (&'static str, &'static str, &'static str);

pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s", "all"),
    ("maintain_insert_ms", "ms", "maintain"),
    ("maintain_delete_ms", "ms", "maintain"),
    ("maintain_modify_ms", "ms", "maintain"),
    ("maintain_bulk32_ms", "ms", "maintain"),
    ("recompute_ms", "ms", "maintain"),
    ("maintain_speedup", "x", "maintain"),
    ("commit_p50_ms", "ms", "commit"),
    ("ingest_tput_ops", "ops/s", "commit"),
    ("read_small_p50_us", "us", "read"),
    ("read_large_p50_us", "us", "read"),
    ("read_writer_commit_p50_ms", "ms", "read"),
    ("restart_commit_p50_ms", "ms", "restart"),
    ("recovery_ms", "ms", "restart"),
    ("wal_bytes_per_op", "B", "restart"),
];

pub const PER_LAYER: &[Metric] = &[
    // Write ladder: adjacent rung medians, differenced.
    ("server.write_self_us", "us", "commit"),
    ("viewsrv.session.self_us", "us", "commit"),
    ("viewsrv.durability.self_us", "us", "commit"),
    ("core.self_us", "us", "commit"),
    ("xmlstore.self_us", "us", "commit"),
    ("client.ladder_gap_frac", "ratio", "commit"),
    ("client.trace_overhead_frac", "ratio", "commit"),
    // Read ladder.
    ("server.read_self_us.small", "us", "read"),
    ("server.read_self_us.large", "us", "read"),
    ("wire.extent_encode_us.small", "us", "read"),
    ("wire.extent_encode_us.large", "us", "read"),
    ("viewsrv.epoch.pin_ns", "ns", "read"),
    // Direct timings and counts, by module.
    ("xquery.parse_update_us", "us", "maintain"),
    ("xquery.build_op_us", "us", "maintain"),
    ("xat.translate_us", "us", "maintain"),
    ("xat.recompute_ms.flat", "ms", "maintain"),
    ("xat.recompute_ms.prices", "ms", "maintain"),
    ("xat.recompute_ms.join", "ms", "maintain"),
    ("xat.recompute_ms.grouped", "ms", "maintain"),
    ("core.resolve_us", "us", "maintain"),
    ("core.validate_us.insert", "us", "maintain"),
    ("core.validate_us.delete", "us", "maintain"),
    ("core.validate_us.modify", "us", "maintain"),
    ("core.propagate_ms.insert", "ms", "maintain"),
    ("core.propagate_ms.delete", "ms", "maintain"),
    ("core.propagate_ms.modify", "ms", "maintain"),
    ("core.apply_us.insert", "us", "maintain"),
    ("core.apply_us.delete", "us", "maintain"),
    ("core.apply_us.modify", "us", "maintain"),
    ("core.relevancy_skip_ratio", "ratio", "maintain"),
    ("exec.map_overhead_us", "us", "maintain"),
    ("flexkey.sibling_between_ns", "ns", "maintain"),
    ("xmlstore.load_doc_ms", "ms", "restart"),
    ("xmlstore.frozen_us", "us", "restart"),
    ("xmlstore.unshare_ms", "ms", "restart"),
    ("wire.batch_encode_us", "us", "commit"),
    ("wire.batch_decode_us", "us", "commit"),
    ("wire.extent_decode_us.large", "us", "read"),
    ("wire.extent_bytes.small", "B", "read"),
    ("wire.extent_bytes.large", "B", "read"),
    ("proto.codec_us", "us", "commit"),
    ("server.rtt_us", "us", "commit"),
    ("server.queue_full", "count", "commit"),
    ("viewsrv.session.chunks_per_round", "ratio", "commit"),
    ("viewsrv.session.ops_per_chunk", "ratio", "commit"),
    ("viewsrv.epoch.publish_us", "us", "read"),
    ("viewsrv.epoch.publishes", "count", "commit"),
    ("viewsrv.durability.wal_append_us", "us", "commit"),
    ("viewsrv.durability.wal_sync_us", "us", "commit"),
    ("viewsrv.durability.fsyncs_per_commit", "ratio", "commit"),
    ("viewsrv.durability.rotations", "count", "restart"),
    ("viewsrv.durability.snapshot_capture_us", "us", "restart"),
    ("viewsrv.durability.snapshot_encode_ms", "ms", "restart"),
    ("viewsrv.durability.snapshot_decode_ms", "ms", "restart"),
    ("viewsrv.durability.snapshot_install_ms", "ms", "restart"),
    ("viewsrv.durability.snapshot_bytes", "B", "restart"),
    ("viewsrv.durability.open_empty_ms", "ms", "restart"),
    ("viewsrv.durability.replay_ms_per_record", "ms", "restart"),
    ("viewsrv.durability.stall_over_steady", "x", "restart"),
    ("obs.counter_inc_ns", "ns", "maintain"),
    ("obs.hist_record_ns", "ns", "maintain"),
    // Tails: on two shared cores they do not repeat within a tenth.
    ("client.rotation_stall_ms", "ms", "restart"),
    ("client.commit_p90_ms", "ms", "commit"),
    ("client.commit_p99_ms", "ms", "commit"),
    ("client.read_p99_us.small", "us", "read"),
    ("client.read_p99_us.large", "us", "read"),
    ("client.gen_late_p99_ms", "ms", "commit"),
];
