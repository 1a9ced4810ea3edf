//! `repro` — regenerate every figure and experiment of the paper.
//!
//! ```text
//! repro                    print everything
//! repro --figure 7         print one figure (2..=10)
//! repro --experiment E2    print one experiment (E1..E4)
//! repro --list             list available artifacts
//! ```

#![forbid(unsafe_code)]

use sil_bench::figures;
use sil_bench::speedups;

fn print_figure(n: u32) {
    let (title, body) = match n {
        2 => (
            "Figure 2 — path matrices for a chain of handle assignments",
            figures::figure_2_handle_assignments(),
        ),
        3 => (
            "Figure 3 — iterative approximation for the leftmost-node loop",
            figures::figure_3_while_loop(),
        ),
        4 => (
            "Figure 4 — packing sequential statements into a parallel statement",
            figures::figure_4_statement_packing(),
        ),
        5 => (
            "Figure 5 — read and write sets of the basic statements",
            figures::figure_5_read_write_sets(),
        ),
        6 => (
            "Figure 6 — worked interference examples",
            figures::figure_6_interference_examples(),
        ),
        7 => (
            "Figure 7 — path matrices pA, pB, pC of add_and_reverse",
            figures::figure_7_path_matrices(),
        ),
        8 => (
            "Figure 8 — automatically parallelized add_and_reverse",
            figures::figure_8_parallel_program(),
        ),
        9 => (
            "Figure 9 / §5.3 — statement-sequence interference",
            figures::figure_9_sequence_interference(),
        ),
        10 => (
            "Figure 10 — relative read/write sets",
            figures::figure_10_relative_sets(),
        ),
        other => {
            eprintln!("unknown figure {other}; the paper's figures are 2..=10");
            std::process::exit(1);
        }
    };
    println!("==================================================================");
    println!("{title}");
    println!("==================================================================");
    println!("{body}");
}

fn print_experiment(id: &str) {
    println!("==================================================================");
    match id.to_ascii_uppercase().as_str() {
        "E1" | "BISORT" => {
            println!("E1 — adaptive bitonic sort (bisort): detected parallelism");
            println!("==================================================================");
            for row in speedups::bisort_rows(&[6, 8, 10, 12]) {
                println!("{row}");
            }
        }
        "E2" | "SPEEDUP" => {
            println!("E2 — add_and_reverse: cost-model work/span and Brent speedups");
            println!("==================================================================");
            for row in speedups::speedup_rows(&[6, 8, 10, 12, 14]) {
                println!("{}", row.render());
            }
        }
        "E3" | "ANALYSIS" => {
            println!("E3 — analysis scalability on generated programs");
            println!("==================================================================");
            for row in speedups::analysis_scaling_rows(&[50, 100, 200, 400, 800]) {
                println!("{row}");
            }
        }
        "E4" | "DEBUG" => {
            println!("E4 — debugging parallel programs (static + dynamic checks)");
            println!("==================================================================");
            println!("{}", speedups::debug_experiment());
        }
        other => {
            eprintln!("unknown experiment `{other}`; known: E1, E2, E3, E4");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            for n in 2..=10 {
                print_figure(n);
            }
            for e in ["E1", "E2", "E3", "E4"] {
                print_experiment(e);
            }
        }
        [flag] if flag == "--list" => {
            println!("figures:     2 3 4 5 6 7 8 9 10");
            println!("experiments: E1 (bisort) E2 (speedup) E3 (analysis) E4 (debug)");
        }
        [flag, n] if flag == "--figure" => match n.parse::<u32>() {
            Ok(n) => print_figure(n),
            Err(_) => {
                eprintln!("--figure expects a number between 2 and 10");
                std::process::exit(1);
            }
        },
        [flag, id] if flag == "--experiment" => print_experiment(id),
        _ => {
            eprintln!("usage: repro [--list | --figure N | --experiment ID]");
            std::process::exit(1);
        }
    }
}
