//! Random SIL program generation.
//!
//! The analysis-scalability experiment (and several property tests) need SIL
//! programs of controllable size.  The generator produces *well-typed,
//! normalized, nil-safe* straight-line procedures over a configurable number
//! of handle and integer variables: every generated handle statement only
//! dereferences handles that are known to be non-nil at that point (they
//! were the target of a `new()` earlier), so the programs can also be
//! executed, not just analyzed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sil_lang::ast::{Field, Program, TypeName};
use sil_lang::builder::{expr, stmt, ProcBuilder, ProgramBuilder};

/// Configuration of the random program generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of handle variables.
    pub handle_vars: usize,
    /// Number of integer variables.
    pub int_vars: usize,
    /// Number of statements in `main`.
    pub statements: usize,
    /// RNG seed (generation is deterministic for a given config).
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            handle_vars: 8,
            int_vars: 4,
            statements: 64,
            seed: 0xC0FFEE,
        }
    }
}

/// The random program generator.
pub struct ProgramGenerator {
    config: GeneratorConfig,
    rng: StdRng,
}

impl ProgramGenerator {
    pub fn new(config: GeneratorConfig) -> ProgramGenerator {
        let rng = StdRng::seed_from_u64(config.seed);
        ProgramGenerator { config, rng }
    }

    fn handle_name(i: usize) -> String {
        format!("h{i}")
    }

    fn int_name(i: usize) -> String {
        format!("x{i}")
    }

    /// [`ProgramGenerator::generate`], pretty-printed.
    pub fn generate_source(&mut self) -> String {
        sil_lang::pretty_program(&self.generate())
    }

    /// Generate a program with a single straight-line `main`.
    pub fn generate(&mut self) -> Program {
        let handle_names: Vec<String> = (0..self.config.handle_vars)
            .map(Self::handle_name)
            .collect();
        let int_names: Vec<String> = (0..self.config.int_vars).map(Self::int_name).collect();

        let mut builder = ProcBuilder::procedure("main");
        for h in &handle_names {
            builder = builder.local(h, TypeName::Handle);
        }
        for x in &int_names {
            builder = builder.local(x, TypeName::Int);
        }

        // Initialise every variable so the program is executable.
        let mut stmts = Vec::with_capacity(self.config.statements + handle_names.len());
        for h in &handle_names {
            stmts.push(stmt::assign_new(h));
        }
        for x in &int_names {
            stmts.push(stmt::assign_var(x, expr::int(1)));
        }
        // `initialized[i]` — handle i certainly names a node right now.
        let mut non_nil = vec![true; handle_names.len()];

        for _ in 0..self.config.statements {
            let s = self.random_statement(&handle_names, &int_names, &mut non_nil);
            stmts.push(s);
        }
        let main = builder.stmts(stmts).build();
        ProgramBuilder::new("generated").procedure(main).build()
    }

    fn pick_non_nil(&mut self, non_nil: &[bool]) -> Option<usize> {
        let candidates: Vec<usize> = non_nil
            .iter()
            .enumerate()
            .filter(|(_, ok)| **ok)
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[self.rng.gen_range(0..candidates.len())])
        }
    }

    fn random_statement(
        &mut self,
        handles: &[String],
        ints: &[String],
        non_nil: &mut [bool],
    ) -> sil_lang::ast::Stmt {
        let choice = self.rng.gen_range(0..100);
        let field = if self.rng.gen_bool(0.5) {
            Field::Left
        } else {
            Field::Right
        };
        match choice {
            // a fresh node
            0..=19 => {
                let dst = self.rng.gen_range(0..handles.len());
                non_nil[dst] = true;
                stmt::assign_new(&handles[dst])
            }
            // a handle copy
            20..=34 => {
                let src = self.rng.gen_range(0..handles.len());
                let dst = self.rng.gen_range(0..handles.len());
                non_nil[dst] = non_nil[src];
                stmt::copy(&handles[dst], &handles[src])
            }
            // attach a node below another node
            35..=54 => {
                let (Some(dst), Some(src)) =
                    (self.pick_non_nil(non_nil), self.pick_non_nil(non_nil))
                else {
                    return stmt::assign_new(&handles[0]);
                };
                stmt::store(&handles[dst], field, &handles[src])
            }
            // write a value field
            55..=74 => match self.pick_non_nil(non_nil) {
                Some(dst) => {
                    let x = self.rng.gen_range(0..ints.len());
                    stmt::store_value(
                        &handles[dst],
                        expr::add(expr::var(&ints[x]), expr::int(self.rng.gen_range(0..10))),
                    )
                }
                None => stmt::assign_new(&handles[0]),
            },
            // read a value field
            75..=89 => match self.pick_non_nil(non_nil) {
                Some(src) => {
                    let x = self.rng.gen_range(0..ints.len());
                    stmt::load_value(&ints[x], &handles[src])
                }
                None => stmt::assign_new(&handles[0]),
            },
            // load a child (the result may be nil)
            _ => {
                let (Some(src), dst) = (
                    self.pick_non_nil(non_nil),
                    self.rng.gen_range(0..handles.len()),
                ) else {
                    return stmt::assign_new(&handles[0]);
                };
                non_nil[dst] = false;
                stmt::load(&handles[dst], &handles[src], field)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sil_lang::normalize::normalize_program;
    use sil_lang::types::check_program;

    #[test]
    fn generated_programs_typecheck() {
        for seed in 0..10 {
            let mut gen = ProgramGenerator::new(GeneratorConfig {
                seed,
                ..GeneratorConfig::default()
            });
            let program = gen.generate();
            let normalized = normalize_program(&program);
            check_program(&normalized).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn statement_count_scales_with_config() {
        let mut small = ProgramGenerator::new(GeneratorConfig {
            statements: 10,
            ..GeneratorConfig::default()
        });
        let mut large = ProgramGenerator::new(GeneratorConfig {
            statements: 200,
            ..GeneratorConfig::default()
        });
        let s = small.generate().statement_count();
        let l = large.generate().statement_count();
        assert!(l > s + 150, "expected ~190 more statements, got {s} vs {l}");
    }

    #[test]
    fn generation_is_deterministic() {
        let config = GeneratorConfig::default();
        let a = ProgramGenerator::new(config.clone()).generate();
        let b = ProgramGenerator::new(config).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ProgramGenerator::new(GeneratorConfig {
            seed: 1,
            ..GeneratorConfig::default()
        })
        .generate();
        let b = ProgramGenerator::new(GeneratorConfig {
            seed: 2,
            ..GeneratorConfig::default()
        })
        .generate();
        assert_ne!(a, b);
    }
}
