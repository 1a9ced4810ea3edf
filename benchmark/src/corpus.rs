//! The frozen inputs: 64 `.sil` programs and what `sild` must answer for
//! each, plus the two ways the generator derives never-seen programs from
//! them (renaming procedures, editing `main`'s size literal).
//!
//! Nothing here links a repo crate: the files under `corpus/` are the
//! benchmark's own copy, rewritten only by `run.sh --regen-corpus`.

use crate::json::{escape, Value};
use std::path::Path;

/// What a correct daemon answers for one corpus program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// `analysis_digest`, 16 hex digits.  Holds for the program as frozen;
    /// a renamed or edited variant has another digest and is checked on the
    /// remaining fields only.
    pub digest: String,
    pub structure: String,
    pub preserves_tree: bool,
    pub rounds: u64,
    /// `transforms` of a `process` with default options.
    pub transforms: u64,
}

#[derive(Debug, Clone)]
pub struct Program {
    /// `<workload>@<size>`; its source is in [`file_name`]`(name)`.
    pub name: String,
    pub source: String,
    pub expect: Expect,
}

/// The corpus in rank order: Zipf rank `k` is `programs[k]`.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub programs: Vec<Program>,
}

/// The corpus file holding program `name`: `tree_sum@6` is `tree_sum-6.sil`.
pub fn file_name(name: &str) -> String {
    format!("{}.sil", name.replace('@', "-"))
}

pub const EXPECTED_HEADER: &str = "name\tdigest\tstructure\tpreserves_tree\trounds\ttransforms";

impl Corpus {
    /// Read `expected.tsv` and the program files it names from `dir`.
    pub fn load(dir: &Path) -> Result<Corpus, String> {
        let table = dir.join("expected.tsv");
        let text = std::fs::read_to_string(&table)
            .map_err(|e| format!("cannot read {}: {e}", table.display()))?;
        let mut lines = text.lines();
        if lines.next() != Some(EXPECTED_HEADER) {
            return Err(format!("{}: unexpected header", table.display()));
        }
        let mut programs = Vec::new();
        for line in lines.filter(|line| !line.is_empty()) {
            let cells: Vec<&str> = line.split('\t').collect();
            let [name, digest, structure, preserves_tree, rounds, transforms] = cells[..] else {
                return Err(format!("{}: malformed row {line:?}", table.display()));
            };
            let number = |cell: &str| {
                cell.parse::<u64>()
                    .map_err(|e| format!("{}: {cell:?}: {e}", table.display()))
            };
            let path = dir.join(file_name(name));
            programs.push(Program {
                name: name.to_string(),
                source: std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
                expect: Expect {
                    digest: digest.to_string(),
                    structure: structure.to_string(),
                    preserves_tree: preserves_tree == "true",
                    rounds: number(rounds)?,
                    transforms: number(transforms)?,
                },
            });
        }
        if programs.is_empty() {
            return Err(format!("{}: no programs", table.display()));
        }
        Ok(Corpus { programs })
    }

    /// Indices of the programs of one size, in corpus order (the ten size-6
    /// templates the cold and edit workloads cycle through).
    pub fn of_size(&self, size: u32) -> Vec<usize> {
        let suffix = format!("@{size}");
        (0..self.programs.len())
            .filter(|&i| self.programs[i].name.ends_with(&suffix))
            .collect()
    }
}

/// The size parameter every `cold_unique` / `edit_stream` template is
/// generated at.
pub const TEMPLATE_SIZE: u32 = 6;

/// A source cut at its variable spots, each fixed piece already escaped for
/// a JSON string, so producing a variant is a handful of `push_str` calls in
/// the generator's hot loop.
#[derive(Debug, Clone)]
pub struct Template {
    pieces: Vec<String>,
}

impl Template {
    /// Slots after every occurrence of a procedure or function name other
    /// than `main`.  Filled with a tag, the variant is the same program under
    /// new names: names are part of the cone fingerprint, so it misses every
    /// store namespace, while variables and fields are left alone and the
    /// daemon's global interner stays bounded.
    pub fn renaming(source: &str) -> Template {
        let tokens = tokens(source);
        let mut names: Vec<&str> = Vec::new();
        for pair in tokens.windows(2) {
            if matches!(pair[0].text, "procedure" | "function")
                && pair[1].kind == Kind::Word
                && pair[1].text != "main"
            {
                names.push(pair[1].text);
            }
        }
        let cuts = tokens
            .iter()
            .filter(|t| t.kind == Kind::Word && names.contains(&t.text))
            .map(|t| (t.end, t.end));
        Template::cut(source, cuts)
    }

    /// One slot in place of the first `literal` token after `procedure main`
    /// — the size parameter of a corpus program.  Filled with another number
    /// the variant misses the program namespace while every callee cone
    /// still hits.
    pub fn editing(source: &str, literal: u32) -> Result<Template, String> {
        let tokens = tokens(source);
        let main = tokens
            .windows(2)
            .position(|pair| pair[0].text == "procedure" && pair[1].text == "main")
            .ok_or("no `procedure main`")?;
        let literal = literal.to_string();
        let token = tokens[main..]
            .iter()
            .find(|t| t.kind == Kind::Number && t.text == literal)
            .ok_or_else(|| format!("no literal {literal} in main"))?;
        Ok(Template::cut(
            source,
            [(token.start, token.end)].into_iter(),
        ))
    }

    /// Keep the text between `cuts` (byte ranges to drop, ascending).
    fn cut(source: &str, cuts: impl Iterator<Item = (usize, usize)>) -> Template {
        let mut pieces = Vec::new();
        let mut from = 0;
        for (start, end) in cuts {
            pieces.push(escape(&source[from..start]));
            from = end;
        }
        pieces.push(escape(&source[from..]));
        Template { pieces }
    }

    pub fn slots(&self) -> usize {
        self.pieces.len() - 1
    }

    /// Append the variant with `fill` in every slot, JSON-escaped.  `fill`
    /// must itself need no escaping (tags and numbers do not).
    pub fn fill_into(&self, out: &mut String, fill: &str) {
        let (last, init) = self.pieces.split_last().expect("a template has a piece");
        for piece in init {
            out.push_str(piece);
            out.push_str(fill);
        }
        out.push_str(last);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Word,
    Number,
}

#[derive(Debug, Clone, Copy)]
struct Token<'a> {
    kind: Kind,
    text: &'a str,
    start: usize,
    end: usize,
}

/// The identifiers and integer literals of `source`, in order.  Everything
/// else (punctuation, whitespace) is skipped: the generator only needs to
/// find names and numbers, not to parse SIL.
fn tokens(source: &str) -> Vec<Token<'_>> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let start = at;
        let kind = match bytes[at] {
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => Kind::Word,
            b'0'..=b'9' => Kind::Number,
            _ => {
                at += 1;
                continue;
            }
        };
        while at < bytes.len() && (bytes[at].is_ascii_alphanumeric() || bytes[at] == b'_') {
            at += 1;
        }
        out.push(Token {
            kind,
            text: &source[start..at],
            start,
            end: at,
        });
    }
    out
}

/// What to hold a reply to, beyond the fields every variant of a program
/// shares (`structure`, `preserves_tree`, `rounds`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// The request was the program byte for byte as frozen, so its
    /// `analysis_digest` is known.
    pub digest: bool,
    pub cache_hit: bool,
    /// The request was a `process`: also check `transforms` and that
    /// `violations` is empty.
    pub process: bool,
}

impl Check {
    /// `Ok` when `response` (one parsed wire line) is the right answer for a
    /// program whose frozen expectations are `expect`.
    pub fn verify(&self, expect: &Expect, response: &Value) -> Result<(), String> {
        let (kind, body) = if self.process {
            ("report", "report")
        } else {
            ("analyzed", "summary")
        };
        if response.get("type").and_then(Value::as_str) != Some(kind) {
            return Err(format!("expected a {kind} response"));
        }
        let body = response.get(body).ok_or("response has no body")?;
        let mut wanted = vec![
            ("structure", Value::Str(expect.structure.clone())),
            ("preserves_tree", Value::Bool(expect.preserves_tree)),
            ("rounds", Value::Num(expect.rounds as f64)),
            ("cache_hit", Value::Bool(self.cache_hit)),
        ];
        if self.digest {
            wanted.push(("analysis_digest", Value::Str(expect.digest.clone())));
        }
        if self.process {
            wanted.push(("transforms", Value::Num(expect.transforms as f64)));
            wanted.push(("violations", Value::Arr(Vec::new())));
        }
        for (key, want) in wanted {
            match body.get(key) {
                Some(got) if *got == want => {}
                got => return Err(format!("{key}: expected {want:?}, got {got:?}")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    const SOURCE: &str = "program p\nprocedure main()\n  d: int\nbegin\n  d := 6;\n  \
        walk(d);\n  d := size(6)\nend\nprocedure walk(n: int)\nbegin\n  walk(n)\nend\n\
        function size(n: int) int\nbegin\nend\nreturn (n)\n";

    fn filled(template: &Template, fill: &str) -> String {
        let mut out = String::new();
        template.fill_into(&mut out, fill);
        let line = format!("\"{out}\"");
        Value::parse(&line).unwrap().as_str().unwrap().to_string()
    }

    #[test]
    fn renaming_tags_every_name_but_main() {
        let template = Template::renaming(SOURCE);
        assert_eq!(template.slots(), 5);
        let variant = filled(&template, "_x1");
        assert!(variant.contains("procedure main()"));
        assert!(variant.contains("walk_x1(d);"));
        assert!(variant.contains("procedure walk_x1(n: int)"));
        assert!(variant.contains("  walk_x1(n)\n"));
        assert!(variant.contains("d := size_x1(6)"));
        assert!(variant.contains("function size_x1(n: int) int"));
        assert_eq!(filled(&template, ""), SOURCE);
    }

    #[test]
    fn editing_replaces_only_the_first_literal_of_main() {
        let template = Template::editing(SOURCE, 6).unwrap();
        assert_eq!(template.slots(), 1);
        let variant = filled(&template, "1234");
        assert!(variant.contains("d := 1234;"));
        assert!(variant.contains("size(6)"));
        assert!(Template::editing(SOURCE, 7).is_err());
    }

    #[test]
    fn a_wrong_answer_is_caught() {
        let expect = Expect {
            digest: "00000000000000aa".to_string(),
            structure: "TREE".to_string(),
            preserves_tree: true,
            rounds: 3,
            transforms: 2,
        };
        let good = Value::parse(
            r#"{"type":"analyzed","summary":{"cache_hit":true,"structure":"TREE",
                "preserves_tree":true,"rounds":3,"analysis_digest":"00000000000000aa"}}"#,
        )
        .unwrap();
        let check = Check {
            digest: true,
            cache_hit: true,
            process: false,
        };
        assert_eq!(check.verify(&expect, &good), Ok(()));
        let cold = Check {
            cache_hit: false,
            ..check
        };
        let wrong = cold.verify(&expect, &good).unwrap_err();
        assert!(wrong.contains("cache_hit"), "{wrong}");
        let corrupted = Expect {
            digest: "00000000000000ab".to_string(),
            ..expect.clone()
        };
        let wrong = check.verify(&corrupted, &good).unwrap_err();
        assert!(wrong.contains("analysis_digest"), "{wrong}");
        let error = Value::parse(r#"{"type":"error","error":{"kind":"frontend"}}"#).unwrap();
        assert!(check.verify(&expect, &error).is_err());
    }
}
