// Mini-tree fixture crate "alpha": a wall-clock read outside the
// sanctioned timing modules, so the tree walk reports findings from
// more than one crate.

pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn helper(n: usize) -> usize {
    n + 1
}
