//! Worker-process shim for socket-backed benches.
//!
//! The socket backends spawn `<bin> worker <addr> <node> <pmax> <hb_ms>`
//! for every node; in the test suites `<bin>` is the `vcalc` binary,
//! but `CARGO_BIN_EXE_vcalc` belongs to the root package and is
//! invisible to `vcal-bench` benches. This shim gives the bench package
//! its own spawnable worker so E19 can run the service's pool as real
//! OS processes (`VCAL_WORKER_BIN=$CARGO_BIN_EXE_vcal-bench-worker`).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.split_first() {
        Some((cmd, argv)) if cmd == "worker" => vcal_machine::run_worker_process(argv),
        _ => Err("usage: vcal-bench-worker worker <addr> <node> <pmax> <hb_ms>".to_string()),
    };
    if let Err(e) = res {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
