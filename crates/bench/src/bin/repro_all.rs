//! Reproduces every table and figure in one process, entirely through the
//! shared-pool sweep engine, and leaves all CSVs under `results/` plus a
//! reproducible sweep artifact at `results/sweep_repro_all/manifest.json`.
//! This is the README's "Reproduce every table and figure" command.

fn main() {
    venice_bench::figures::repro_all();
}
