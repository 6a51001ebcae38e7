//! Small DAG utilities shared by the scheduler.

/// Kahn topological sort over `0..n` with a successor callback; `None`
/// when the graph has a cycle.
///
/// # Example
///
/// ```
/// use netdag_core::graph::topological_order;
///
/// // 0 → 1 → 2
/// let order = topological_order(3, |v| match v {
///     0 => vec![1],
///     1 => vec![2],
///     _ => vec![],
/// })
/// .expect("acyclic");
/// assert_eq!(order, vec![0, 1, 2]);
/// ```
pub fn topological_order<F>(n: usize, successors: F) -> Option<Vec<usize>>
where
    F: Fn(usize) -> Vec<usize>,
{
    let mut indegree = vec![0usize; n];
    for v in 0..n {
        for s in successors(v) {
            indegree[s] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    // Keep deterministic order: smallest id first.
    queue.sort_unstable_by(|a, b| b.cmp(a));
    let mut out = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        out.push(v);
        for s in successors(v) {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                // Insert keeping the stack sorted descending.
                let pos = queue.partition_point(|&x| x > s);
                queue.insert(pos, s);
            }
        }
    }
    (out.len() == n).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topo_detects_cycle() {
        assert!(topological_order(2, |v| vec![(v + 1) % 2]).is_none());
    }

    #[test]
    fn topo_is_deterministic_smallest_first() {
        // Two independent chains; ties broken by id.
        let order = topological_order(4, |v| match v {
            0 => vec![2],
            1 => vec![3],
            _ => vec![],
        })
        .unwrap();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}
