//! End-to-end scheme comparison at bench scale: a full (short) search under
//! the fork-join baseline versus the de-centralized scheme, in real wall
//! time and in communication volume. The in-process wall-time gap
//! understates the cluster gap (thread "messages" are memcpys), which is
//! why the figure harnesses use the analytic cluster model — but the
//! region/byte counts here are the real, hardware-independent measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::{RunConfig, Scheme};

fn quick_search() -> SearchConfig {
    SearchConfig {
        max_iterations: 1,
        epsilon: 0.5,
        spr_radius: 2,
        smoothing_passes: 1,
        optimize_model: true,
        model_tol: 1e-2,
    }
}

fn bench_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_search");
    group.sample_size(10);
    for partitions in [4usize, 16] {
        let w = workloads::partitioned_52taxa(partitions, 30, 3);
        group.bench_with_input(
            BenchmarkId::new("decentralized", partitions),
            &partitions,
            |b, _| {
                b.iter(|| {
                    let mut cfg = RunConfig::new(4);
                    cfg.search = quick_search();
                    std::hint::black_box(cfg.run(&w.compressed).unwrap())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("forkjoin", partitions),
            &partitions,
            |b, _| {
                b.iter(|| {
                    let mut cfg = RunConfig::new(4).scheme(Scheme::ForkJoin);
                    cfg.search = quick_search();
                    std::hint::black_box(cfg.run(&w.compressed).unwrap())
                });
            },
        );
    }
    group.finish();

    // Print the communication comparison once (the paper's actual metric).
    let w = workloads::partitioned_52taxa(16, 30, 3);
    let mut cfg = RunConfig::new(4);
    cfg.search = quick_search();
    let dec = cfg.run(&w.compressed).unwrap();
    let mut fcfg = RunConfig::new(4).scheme(Scheme::ForkJoin);
    fcfg.search = quick_search();
    let fj = fcfg.run(&w.compressed).unwrap();
    eprintln!(
        "16 partitions: fork-join {} regions / {} bytes vs de-centralized {} regions / {} bytes",
        fj.comm_stats.total_regions(),
        fj.comm_stats.total_bytes(),
        dec.comm_stats.total_regions(),
        dec.comm_stats.total_bytes()
    );
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
