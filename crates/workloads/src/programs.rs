//! The SIL benchmark programs.
//!
//! Every program is produced as source text parameterised by its input size
//! (usually the depth of a perfect binary tree), so benchmarks can sweep
//! sizes.  All programs build their own input — the paper's `{ ... build a
//! tree at root ... }` comment is expanded into a `build` function.

/// A named, parameterised benchmark program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Figure 7: add +1/-1 to the two subtrees, then mirror the whole tree.
    AddAndReverse,
    /// Figure 3: walk to the leftmost node of a tree.
    Leftmost,
    /// Sum all node values of a tree (read-only recursion).
    TreeSum,
    /// Compute the height of a tree (read-only recursion).
    TreeHeight,
    /// Mirror a tree in place (structural updates).
    TreeMirror,
    /// Olden-style `treeadd`: add the children's values into each node.
    TreeAdd,
    /// Build a binary search tree by repeated insertion, then sum it.
    BstInsert,
    /// Adaptive bitonic sort over a perfect tree (the \[BN86\] reference of
    /// the paper's conclusions).
    Bisort,
    /// Sum a linked list (recursive traversal over a left-spine list — the
    /// paper's list structures, section 2).
    ListSum,
    /// Reverse a linked list in place with the classic three-pointer loop.
    ListReverse,
}

impl Workload {
    /// All workloads, in a stable order.
    pub const ALL: [Workload; 10] = [
        Workload::AddAndReverse,
        Workload::Leftmost,
        Workload::TreeSum,
        Workload::TreeHeight,
        Workload::TreeMirror,
        Workload::TreeAdd,
        Workload::BstInsert,
        Workload::Bisort,
        Workload::ListSum,
        Workload::ListReverse,
    ];

    /// A short stable name (used in benchmark ids and reports).
    pub fn name(&self) -> &'static str {
        match self {
            Workload::AddAndReverse => "add_and_reverse",
            Workload::Leftmost => "leftmost",
            Workload::TreeSum => "tree_sum",
            Workload::TreeHeight => "tree_height",
            Workload::TreeMirror => "tree_mirror",
            Workload::TreeAdd => "treeadd",
            Workload::BstInsert => "bst_insert",
            Workload::Bisort => "bisort",
            Workload::ListSum => "list_sum",
            Workload::ListReverse => "list_reverse",
        }
    }

    /// [`Workload::source`] with `tag` appended to every procedure and
    /// function name but `main`, wherever it occurs: the same program under
    /// names no cache has seen, since names are part of every procedure's
    /// fingerprint.  `tag` must itself be a valid identifier tail.
    pub fn renamed_source(&self, size: u32, tag: &str) -> String {
        let source = self.source(size);
        let program = sil_lang::parse_program(&source).expect("every workload parses");
        let names: Vec<&str> = program
            .procedures
            .iter()
            .map(|p| p.name.as_str())
            .filter(|name| *name != "main")
            .collect();
        let mut out = String::with_capacity(source.len() + 8 * tag.len());
        let mut word = String::new();
        for c in source.chars().chain(std::iter::once('\n')) {
            if c.is_ascii_alphanumeric() || c == '_' {
                word.push(c);
                continue;
            }
            out.push_str(&word);
            if names.contains(&word.as_str()) {
                out.push_str(tag);
            }
            word.clear();
            out.push(c);
        }
        out.pop();
        out
    }

    /// The SIL source for this workload at the given size parameter
    /// (tree depth for the tree kernels, element count for `BstInsert`).
    pub fn source(&self, size: u32) -> String {
        match self {
            Workload::AddAndReverse => add_and_reverse(size),
            Workload::Leftmost => leftmost(size),
            Workload::TreeSum => tree_sum(size),
            Workload::TreeHeight => tree_height(size),
            Workload::TreeMirror => tree_mirror(size),
            Workload::TreeAdd => treeadd(size),
            Workload::BstInsert => bst_insert(size),
            Workload::Bisort => bisort(size),
            Workload::ListSum => list_sum(size),
            Workload::ListReverse => list_reverse(size),
        }
    }

    /// A reasonable small size used in tests.
    pub fn test_size(&self) -> u32 {
        match self {
            Workload::BstInsert => 64,
            Workload::ListSum | Workload::ListReverse => 24,
            _ => 6,
        }
    }
}

/// The shared `build` function: a perfect binary tree of the given depth
/// whose node values are the depth of the node (root = `depth`).
fn build_function() -> &'static str {
    r#"
function build(depth: int) handle
  t, l, r: handle; d: int
begin
  t := nil;
  if depth > 0 then
  begin
    t := new();
    t.value := depth;
    d := depth - 1;
    l := build(d);
    r := build(d);
    t.left := l;
    t.right := r
  end
end
return (t)
"#
}

/// A `build_keyed` function used by workloads that want distinct,
/// non-monotonic node values: each node's value is a multiplicative hash of
/// its heap index modulo the Mersenne prime 2^31 - 1, which keeps all values
/// pairwise distinct (the adaptive bitonic sort assumes distinct keys).
fn build_keyed_function() -> &'static str {
    r#"
function build_keyed(depth: int; idx: int) handle
  t, l, r: handle; d, k, li, ri: int
begin
  t := nil;
  if depth > 0 then
  begin
    t := new();
    k := idx * 2654435761;
    k := k - (k / 2147483647) * 2147483647;
    t.value := k;
    d := depth - 1;
    li := idx * 2;
    ri := idx * 2 + 1;
    l := build_keyed(d, li);
    r := build_keyed(d, ri);
    t.left := l;
    t.right := r
  end
end
return (t)
"#
}

/// Figure 7 of the paper, with a configurable tree depth.
pub fn add_and_reverse(depth: u32) -> String {
    format!(
        r#"
program add_and_reverse

procedure main()
  root, lside, rside: handle; i: int
begin
  i := {depth};
  root := build(i);
  lside := root.left;
  rside := root.right;
  add_n(lside, 1);
  add_n(rside, -1);
  reverse(root)
end

procedure add_n(h: handle; n: int)
  l, r: handle
begin
  if h <> nil then
  begin
    h.value := h.value + n;
    l := h.left;
    r := h.right;
    add_n(l, n);
    add_n(r, n)
  end
end

procedure reverse(h: handle)
  l, r: handle
begin
  if h <> nil then
  begin
    l := h.left;
    r := h.right;
    reverse(l);
    reverse(r);
    h.left := r;
    h.right := l
  end
end
{build}
"#,
        depth = depth,
        build = build_function()
    )
}

/// Figure 3: walk to the leftmost node.
pub fn leftmost(depth: u32) -> String {
    format!(
        r#"
program leftmost

procedure main()
  h, l: handle; d, v: int
begin
  d := {depth};
  h := build(d);
  l := h;
  while l.left <> nil do
    l := l.left;
  v := l.value
end
{build}
"#,
        depth = depth,
        build = build_function()
    )
}

/// Read-only recursive sum of all node values.
pub fn tree_sum(depth: u32) -> String {
    format!(
        r#"
program tree_sum

procedure main()
  root: handle; d, total: int
begin
  d := {depth};
  root := build(d);
  total := sum(root)
end

function sum(t: handle) int
  l, r: handle; s, a, b: int
begin
  s := 0;
  if t <> nil then
  begin
    l := t.left;
    r := t.right;
    a := sum(l);
    b := sum(r);
    s := t.value + a + b
  end
end
return (s)
{build}
"#,
        depth = depth,
        build = build_function()
    )
}

/// Read-only recursive height computation.
pub fn tree_height(depth: u32) -> String {
    format!(
        r#"
program tree_height

procedure main()
  root: handle; d, h: int
begin
  d := {depth};
  root := build(d);
  h := height(root)
end

function height(t: handle) int
  l, r: handle; h, hl, hr: int
begin
  h := 0;
  if t <> nil then
  begin
    l := t.left;
    r := t.right;
    hl := height(l);
    hr := height(r);
    if hl > hr then h := hl + 1 else h := hr + 1
  end
end
return (h)
{build}
"#,
        depth = depth,
        build = build_function()
    )
}

/// Structural mirror of the whole tree (the `reverse` of Figure 7 on its
/// own).
pub fn tree_mirror(depth: u32) -> String {
    format!(
        r#"
program tree_mirror

procedure main()
  root: handle; d: int
begin
  d := {depth};
  root := build(d);
  mirror(root)
end

procedure mirror(h: handle)
  l, r: handle
begin
  if h <> nil then
  begin
    l := h.left;
    r := h.right;
    mirror(l);
    mirror(r);
    h.left := r;
    h.right := l
  end
end
{build}
"#,
        depth = depth,
        build = build_function()
    )
}

/// Olden-style `treeadd`: every node's value becomes the sum of its subtree.
pub fn treeadd(depth: u32) -> String {
    format!(
        r#"
program treeadd

procedure main()
  root: handle; d, total: int
begin
  d := {depth};
  root := build(d);
  total := treeadd(root)
end

function treeadd(t: handle) int
  l, r: handle; s, a, b: int
begin
  s := 0;
  if t <> nil then
  begin
    l := t.left;
    r := t.right;
    a := treeadd(l);
    b := treeadd(r);
    s := t.value + a + b;
    t.value := s
  end
end
return (s)
{build}
"#,
        depth = depth,
        build = build_function()
    )
}

/// Build a binary search tree by repeated insertion of pseudo-random keys,
/// then sum it.  Exercises loops, DAG-free pointer updates and data-dependent
/// shapes.
pub fn bst_insert(count: u32) -> String {
    format!(
        r#"
program bst_insert

procedure main()
  root, node: handle; i, key, total: int
begin
  root := nil;
  i := 0;
  key := 7;
  while i < {count} do
  begin
    key := key * 75 + 74;
    key := key - (key / 65537) * 65537;
    node := new();
    node.value := key;
    root := insert(root, node);
    i := i + 1
  end;
  total := sum(root)
end

function insert(t: handle; node: handle) handle
  child, res: handle; k, nk: int
begin
  res := t;
  if t = nil then
    res := node
  else
  begin
    k := t.value;
    nk := node.value;
    if nk < k then
    begin
      child := t.left;
      child := insert(child, node);
      t.left := child
    end
    else
    begin
      child := t.right;
      child := insert(child, node);
      t.right := child
    end
  end
end
return (res)

function sum(t: handle) int
  l, r: handle; s, a, b: int
begin
  s := 0;
  if t <> nil then
  begin
    l := t.left;
    r := t.right;
    a := sum(l);
    b := sum(r);
    s := t.value + a + b
  end
end
return (s)
"#,
        count = count
    )
}

/// The adaptive bitonic sort of Bilardi & Nicolau \[BN86\], in the Olden
/// `bisort` formulation: a perfect binary tree holds the keys, `bisort`
/// recursively sorts the two subtrees in opposite directions and `bimerge`
/// merges the resulting bitonic sequence, swapping subtrees and values as it
/// descends.  The recursive calls in both procedures work on disjoint
/// subtrees — exactly the parallelism the paper reports detecting.
pub fn bisort(depth: u32) -> String {
    format!(
        r#"
program bisort

procedure main()
  root: handle; d, spr, dir: int
begin
  d := {depth};
  root := build_keyed(d, 1);
  spr := 99991;
  dir := 0;
  spr := bisort(root, spr, dir)
end

function bisort(root: handle; sprval: int; dir: int) int
  l, r: handle; res, v, ndir, sw: int
begin
  res := sprval;
  if root <> nil then
  begin
    l := root.left;
    r := root.right;
    if l = nil then
    begin
      v := root.value;
      sw := 0;
      if v > res then sw := 1;
      if dir = 1 then sw := 1 - sw;
      if sw = 1 then
      begin
        root.value := res;
        res := v
      end
    end
    else
    begin
      v := root.value;
      ndir := 1 - dir;
      v := bisort(l, v, dir);
      res := bisort(r, res, ndir);
      root.value := v;
      res := bimerge(root, res, dir)
    end
  end
end
return (res)

function bimerge(root: handle; sprval: int; dir: int) int
  pl, pr, tmp: handle; res, rex, elex, vl, vr, v: int
begin
  res := sprval;
  if root <> nil then
  begin
    v := root.value;
    rex := 0;
    if v > res then rex := 1;
    if dir = 1 then rex := 1 - rex;
    if rex = 1 then
    begin
      root.value := res;
      res := v
    end;

    pl := root.left;
    pr := root.right;
    while pl <> nil do
    begin
      vl := pl.value;
      vr := pr.value;
      elex := 0;
      if vl > vr then elex := 1;
      if dir = 1 then elex := 1 - elex;
      if rex = 1 then
      begin
        if elex = 1 then
        begin
          pl.value := vr;
          pr.value := vl;
          tmp := pl.right;
          pl.right := pr.right;
          pr.right := tmp;
          pl := pl.left;
          pr := pr.left
        end
        else
        begin
          pl := pl.right;
          pr := pr.right
        end
      end
      else
      begin
        if elex = 1 then
        begin
          pl.value := vr;
          pr.value := vl;
          tmp := pl.left;
          pl.left := pr.left;
          pr.left := tmp;
          pl := pl.right;
          pr := pr.right
        end
        else
        begin
          pl := pl.left;
          pr := pr.left
        end
      end
    end;

    pl := root.left;
    if pl <> nil then
    begin
      v := root.value;
      pr := root.right;
      v := bimerge(pl, v, dir);
      res := bimerge(pr, res, dir);
      root.value := v
    end
  end
end
return (res)
{build_keyed}
"#,
        depth = depth,
        build_keyed = build_keyed_function()
    )
}

/// The shared `build_list` function: a singly linked list of `n` cells
/// chained through `.left` (the `.right` field stays nil), values n..1 from
/// the head — SIL's encoding of the paper's list structures.
fn build_list_function() -> &'static str {
    r#"
function build_list(n: int) handle
  t, rest: handle; m: int
begin
  t := nil;
  if n > 0 then
  begin
    t := new();
    t.value := n;
    m := n - 1;
    rest := build_list(m);
    t.left := rest
  end
end
return (t)
"#
}

/// Recursive sum over a linked list.  The path matrices here are list
/// matrices: every relation is a pure `L^i` / `L+` path.
pub fn list_sum(len: u32) -> String {
    format!(
        r#"
program list_sum

procedure main()
  head: handle; n, total: int
begin
  n := {len};
  head := build_list(n);
  total := lsum(head)
end

function lsum(h: handle) int
  rest: handle; s, a: int
begin
  s := 0;
  if h <> nil then
  begin
    rest := h.left;
    a := lsum(rest);
    s := h.value + a
  end
end
return (s)
{build_list}
"#,
        len = len,
        build_list = build_list_function()
    )
}

/// In-place linked-list reversal with the classic three-pointer loop: the
/// `cur.left := prev` store repeatedly redirects a list cell, exercising the
/// structural-update transfer functions on list-shaped matrices.
pub fn list_reverse(len: u32) -> String {
    format!(
        r#"
program list_reverse

procedure main()
  head, prev, cur, next: handle; n, check: int
begin
  n := {len};
  head := build_list(n);
  prev := nil;
  cur := head;
  while cur <> nil do
  begin
    next := cur.left;
    cur.left := prev;
    prev := cur;
    cur := next
  end;
  head := prev;
  if head <> nil then
    check := head.value
end
{build_list}
"#,
        len = len,
        build_list = build_list_function()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sil_lang::frontend;
    use sil_runtime_free_check::check_runs;

    /// A renamed source is the same program under tagged procedure names:
    /// every procedure but `main` renamed, calls included, nothing else.
    #[test]
    fn renamed_sources_rename_every_procedure_but_main() {
        for workload in Workload::ALL {
            let (original, _) = frontend(&workload.source(4)).unwrap();
            let (renamed, _) = frontend(&workload.renamed_source(4, "_t7")).unwrap();
            assert_eq!(original.procedures.len(), renamed.procedures.len());
            for (a, b) in original.procedures.iter().zip(&renamed.procedures) {
                let expected = if a.name == "main" {
                    a.name.clone()
                } else {
                    format!("{}_t7", a.name)
                };
                assert_eq!(b.name, expected, "{}", workload.name());
                assert_eq!(a.body.count(), b.body.count());
            }
        }
    }

    /// A tiny helper namespace so the tests below read clearly: parse, type
    /// check and run a workload at a small size with the reference
    /// interpreter (lives here rather than depending on sil-runtime, which
    /// would create a dependency cycle for the workspace build graph —
    /// execution-level checks live in the integration tests instead).
    mod sil_runtime_free_check {
        use sil_lang::frontend;

        pub fn check_runs(src: &str) {
            // "runs" here means: parses, normalizes and type checks.
            frontend(src).unwrap_or_else(|e| panic!("workload does not type check: {e}"));
        }
    }

    #[test]
    fn all_workloads_typecheck_at_test_sizes() {
        for w in Workload::ALL {
            let src = w.source(w.test_size());
            check_runs(&src);
        }
    }

    #[test]
    fn workload_names_are_unique() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Workload::ALL.len());
    }

    #[test]
    fn add_and_reverse_matches_paper_structure() {
        let (program, _) = frontend(&add_and_reverse(4)).unwrap();
        assert!(program.procedure("add_n").is_some());
        assert!(program.procedure("reverse").is_some());
        assert!(program.procedure("build").unwrap().is_function());
    }

    #[test]
    fn sizes_are_parameterised() {
        let small = tree_sum(2);
        let large = tree_sum(12);
        assert!(small.contains("d := 2"));
        assert!(large.contains("d := 12"));
        assert_ne!(small, large);
    }

    #[test]
    fn list_workloads_use_the_left_spine() {
        let (program, _) = frontend(&list_sum(8)).unwrap();
        assert!(program.procedure("build_list").unwrap().is_function());
        assert!(program.procedure("lsum").unwrap().is_function());
        let printed = sil_lang::pretty::pretty_program(&program);
        assert!(printed.contains(".left"), "lists chain through .left");
        assert!(!printed.contains(".right"), "list cells never use .right");

        let (reverse, _) = frontend(&list_reverse(8)).unwrap();
        let main = sil_lang::pretty::pretty_procedure(reverse.procedure("main").unwrap());
        assert!(main.contains("while cur <> nil do"));
        assert!(main.contains("cur.left := prev"));
    }

    #[test]
    fn bisort_has_recursive_disjoint_calls() {
        let (program, _) = frontend(&bisort(4)).unwrap();
        let bisort_fn = program.procedure("bisort").unwrap();
        assert!(bisort_fn.is_function());
        let printed = sil_lang::pretty::pretty_procedure(bisort_fn);
        assert!(printed.contains("bisort(l, v, dir)"));
        assert!(printed.contains("bisort(r, res, ndir)"));
        assert!(program.procedure("bimerge").is_some());
    }
}
