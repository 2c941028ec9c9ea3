//! `examl` — command-line front end for de-centralized maximum-likelihood
//! inference, mirroring the original ExaML tool's interface: alignment +
//! optional partition file in, ML tree out, with `-Q` (monolithic data
//! distribution), `-M` (per-partition branch lengths), Γ/PSR model choice,
//! checkpoint/restart and configurable rank counts.
//!
//! `examl --help` lists every flag; it is rendered from the same table
//! that parses them (`examl_core::cli`).
//!
//! `examl serve …` runs the multi-tenant inference daemon and its client
//! verbs (see [`serve_cli`]). A plain run installs a SIGINT/SIGTERM bridge:
//! the signal checkpoint-preempts the search, committing a final generation
//! when `--checkpoint-out` is armed, and the process exits with code 4 so
//! wrappers can tell "interrupted but resumable" from real failures.
//!
//! Flag parsing lives in `examl_core::cli`, which hands back the
//! `examl_core::RunConfig` to execute — this binary only loads the inputs,
//! runs it and formats the output.

mod serve_cli;

use exa_bio::partition::{parse_partition_file, PartitionScheme};
use exa_bio::patterns::CompressedAlignment;
use exa_comm::CommCategory;
use exa_search::{PreemptSignal, StartingTree};
use examl_core::cli::Io;
use examl_core::{Cli, CliError};
use std::process::ExitCode;

/// `examl --help`: the flag table, rendered.
fn usage() -> String {
    format!(
        "usage: examl (--phylip FILE | --fasta FILE | --binary-in FILE) [options]\n\
         options:\n{}\
         subcommands:\n  \
         serve                  run the multi-tenant inference daemon / talk to one\n                         \
         (examl serve --help)",
        examl_core::cli::usage(&Cli::flags(), 2)
    )
}

fn load_alignment(args: &Io) -> Result<CompressedAlignment, String> {
    if let Some(path) = &args.binary_in {
        return exa_bio::binary::read_file(path).map_err(|e| e.to_string());
    }
    let alignment = if let Some(path) = &args.phylip {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        exa_bio::phylip::parse_phylip_auto(&text).map_err(|e| e.to_string())?
    } else if let Some(path) = &args.fasta {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        exa_bio::fasta::parse_fasta(&text).map_err(|e| e.to_string())?
    } else {
        return Err("no input alignment (use --phylip, --fasta or --binary-in)".into());
    };
    let scheme = match &args.partitions {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            parse_partition_file(&text, alignment.n_sites()).map_err(|e| e.to_string())?
        }
        None => PartitionScheme::unpartitioned(alignment.n_sites()),
    };
    Ok(CompressedAlignment::build(&alignment, &scheme))
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("serve") {
        raw.remove(0);
        return serve_cli::main(raw);
    }
    let Cli { mut run, io: args } = match Cli::parse(raw) {
        Ok(cli) => cli,
        Err(CliError::Help) => {
            eprintln!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let compressed = match load_alignment(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        eprintln!(
            "alignment: {} taxa, {} partitions, {} unique patterns",
            compressed.n_taxa(),
            compressed.n_partitions(),
            compressed.total_patterns()
        );
    }

    if args.stats_only {
        // The ExaML-style pre-run advisory: pattern counts and the CLV
        // memory requirement under each rate model (PSR = 1/4 of Γ, §IV-C).
        println!("taxa                 : {}", compressed.n_taxa());
        println!("partitions           : {}", compressed.n_partitions());
        println!("sites                : {}", compressed.total_sites());
        println!("unique patterns      : {}", compressed.total_patterns());
        let gamma = exa_bio::stats::clv_memory_bytes(&compressed, 4);
        let psr = exa_bio::stats::clv_memory_bytes(&compressed, 1);
        println!(
            "CLV memory (GAMMA)   : {:.1} MiB",
            gamma as f64 / (1 << 20) as f64
        );
        println!(
            "CLV memory (PSR)     : {:.1} MiB",
            psr as f64 / (1 << 20) as f64
        );
        for (i, p) in compressed.partitions.iter().enumerate() {
            let gaps = exa_bio::stats::gap_fraction(p);
            let freqs = exa_bio::stats::empirical_frequencies(p);
            println!(
                "  partition {i:>4} {:<12} {:>6} patterns, {:>5.1}% gaps, pi = [{:.3} {:.3} {:.3} {:.3}]",
                p.name,
                p.n_patterns(),
                100.0 * gaps,
                freqs[0],
                freqs[1],
                freqs[2],
                freqs[3]
            );
        }
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &args.binary_out {
        if let Err(e) = exa_bio::binary::write_file(path, &compressed) {
            eprintln!("error writing binary alignment: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            eprintln!("wrote binary alignment to {}", path.display());
        }
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &args.starting_tree_file {
        match std::fs::read_to_string(path) {
            Ok(text) => run.starting_tree = StartingTree::Newick(text),
            Err(e) => {
                eprintln!("cannot read starting tree {path:?}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.metrics_out.is_some() {
        exa_obs::metrics::global().set_enabled(true);
    }

    // SIGINT/SIGTERM checkpoint-preempt the run instead of killing it
    // mid-iteration: a final generation is committed when --checkpoint-out
    // is armed, and the process exits with the distinct code 4.
    exa_serve::signal::install();
    let preempt = PreemptSignal::new();
    exa_serve::signal::bridge_to(preempt.clone());
    run.preempt = Some(preempt);

    let start = std::time::Instant::now();
    let out = match run.run(&compressed) {
        Ok(out) => out,
        Err(e @ examl_core::RunError::Preempted { .. }) => {
            // Reached only via the signal bridge: no other preemption
            // source exists in plain-run mode. Code 4 = "interrupted, last
            // checkpoint intact, resume with --resume".
            eprintln!("{e}");
            if run.checkpoint_out.is_some() {
                eprintln!("interrupted: final checkpoint committed, resume with --resume");
            } else {
                eprintln!("interrupted (no --checkpoint-out, progress not preserved)");
            }
            return ExitCode::from(4);
        }
        Err(e @ examl_core::RunError::Killed { .. }) => {
            // The injected kill fired after committing its checkpoint
            // budget. Exit code 3 lets restart harnesses distinguish the
            // planned kill from real failures (1) and usage errors (2).
            eprintln!("{e}");
            return ExitCode::from(3);
        }
        Err(e) => {
            // A sentinel trip arrives here as a structured diagnostic naming
            // the first divergent collective, the minority ranks and the
            // differing state component(s).
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed();

    if !args.quiet {
        if let Some(bs) = &out.bootstrap {
            let mean: f64 = bs.support.values().sum::<f64>() / bs.support.len().max(1) as f64;
            eprintln!(
                "bootstrap    : {} replicates, mean split support {:.1}%",
                args.bootstrap, mean
            );
            if let Some(path) = &args.trace_out {
                eprintln!(
                    "wrote traces to {} (+ per-replicate {})",
                    path.display(),
                    examl_core::bootstrap::replicate_trace_path(path, 0).display()
                );
            }
        }
        eprintln!("final lnL    : {:.6}", out.result.lnl);
        eprintln!(
            "iterations   : {} (converged: {})",
            out.result.iterations, out.result.converged
        );
        eprintln!("SPR moves    : {}", out.result.spr_moves);
        eprintln!("wall time    : {elapsed:.2?}");
        eprintln!(
            "comm         : {} regions, {} bytes ({} B likelihood allreduces, {} B derivative allreduces)",
            out.comm_stats.total_regions(),
            out.comm_stats.total_bytes(),
            out.comm_stats.get(CommCategory::SiteLikelihoods).bytes,
            out.comm_stats.get(CommCategory::BranchLength).bytes,
        );
        // Analytic wall-time projection on the paper's reference cluster
        // (AMD Magny-Cours nodes), from this run's measured work + traffic.
        let spec = exa_comm::cluster::ClusterSpec::magny_cours(run.n_ranks.div_ceil(48).max(1));
        let profile = exa_comm::cluster::RunProfile::from_stats(
            &out.comm_stats,
            out.work.total(),
            out.mem_bytes,
        );
        let modeled = exa_comm::cluster::modeled_time(&spec, &profile);
        eprintln!(
            "modeled time : {:.3} s on {} nodes ({:.3} s compute, {:.3} s comm)",
            modeled.total_s, spec.nodes, modeled.compute_s, modeled.comm_s
        );
    }
    if let Some(trace) = &out.trace {
        if !args.quiet {
            eprint!("{}", exa_obs::summary_table(&trace.aggregate()));
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = exa_obs::write_chrome_trace(path, trace) {
                eprintln!("error writing trace: {e}");
                return ExitCode::FAILURE;
            }
            if !args.quiet {
                eprintln!("wrote trace to {}", path.display());
            }
        }
    }
    if !args.quiet {
        // End-of-run health report: kernel backend, sentinel verdict,
        // measured-vs-predicted load imbalance, heartbeat count, critical
        // path. The heartbeat *file* is written regardless of --quiet; only
        // this console rendering is suppressed.
        eprint!("{}", out.health.render());
    }
    if let Some(path) = &args.metrics_out {
        if let Err(e) = std::fs::write(path, exa_obs::metrics::global().render()) {
            eprintln!("error writing metrics: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            eprintln!("wrote metrics to {}", path.display());
        }
    }
    if args.ascii {
        let names: Vec<String> = compressed.taxa.clone();
        eprintln!("{}", out.state.tree.to_ascii(&names));
    }
    let final_tree = out
        .bootstrap
        .as_ref()
        .map(|bs| bs.annotated_newick.clone())
        .unwrap_or_else(|| out.tree_newick.clone());
    match &args.out_tree {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{final_tree}\n")) {
                eprintln!("error writing tree: {e}");
                return ExitCode::FAILURE;
            }
            if !args.quiet {
                eprintln!("wrote tree to {}", path.display());
            }
        }
        None => println!("{final_tree}"),
    }
    ExitCode::SUCCESS
}
