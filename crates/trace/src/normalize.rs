//! Parameter-list normalization and validation.
//!
//! The hardware model assumes each task names a data segment at most once
//! (the Dependence Table holds one state per (task, address) interaction; a
//! duplicate would double-count the readers counter or the kick-off entry).
//! Real StarSs code can legally pass the same block as both `input` and
//! `output`; a source-to-source compiler canonicalizes that to `inout`.
//! [`normalize_params`] performs that canonicalization, preserving first-
//! occurrence order. A trace file that repeats an address within one
//! task is rejected by [`read_trace`](crate::format::read_trace).

use crate::types::Param;

/// Merge duplicate addresses in a parameter list into single entries with
/// the most conservative access mode. Order of first occurrence is kept;
/// sizes take the maximum. Quadratic in the list length, which is bounded
/// by the per-task parameter count (≤ a few thousand for Gaussian pivots).
pub fn normalize_params(params: &[Param]) -> Vec<Param> {
    let mut out: Vec<Param> = Vec::with_capacity(params.len());
    for p in params {
        if let Some(existing) = out.iter_mut().find(|q| q.addr == p.addr) {
            existing.mode = existing.mode.merge(p.mode);
            existing.size = existing.size.max(p.size);
        } else {
            out.push(*p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AccessMode;

    #[test]
    fn dedupes_and_merges_modes() {
        let params = vec![
            Param::input(0x10, 4),
            Param::output(0x20, 8),
            Param::output(0x10, 16), // dup of first → inout, size 16
        ];
        let n = normalize_params(&params);
        assert_eq!(n.len(), 2);
        assert_eq!(n[0].addr, 0x10);
        assert_eq!(n[0].mode, AccessMode::InOut);
        assert_eq!(n[0].size, 16);
        assert_eq!(n[1].addr, 0x20);
    }

    #[test]
    fn preserves_order_without_duplicates() {
        let params = vec![Param::input(3, 4), Param::input(1, 4), Param::input(2, 4)];
        assert_eq!(normalize_params(&params), params);
    }
}
