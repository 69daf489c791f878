//! Dataflow analyses over [`XorProgram`]s.
//!
//! The optimizer passes in [`super::passes`] are rewrites; everything they
//! need to *know* about a program is computed here, once, in forms that
//! mirror a classic compiler midend:
//!
//! * **reaching definitions** — for every source operand of every op,
//!   which op produced the value it reads (or [`Def::Initial`] when the
//!   block still holds its pre-program contents: a survivor read during
//!   recovery, or pristine data feeding an encode);
//! * **def-use chains** — for every op, the later ops that consume its
//!   result ([`DefUse::users`]) and the op that overwrites it
//!   ([`DefUse::killed_by`]);
//! * **liveness** — a backward walk computing which ops can flow into a
//!   designated output set at all ([`live_ops`]), the analysis behind
//!   dead-op elimination.
//!
//! Levels are part of the IR's semantics (a level is a group of mutually
//! independent ops), so every analysis also records each op's level
//! ([`DefUse::level_of`]); the scratch-coloring pass reasons about value
//! lifetimes at level granularity because within a level the IR fixes no
//! order between memory operations.

use crate::schedule::XorProgram;
use std::collections::{BTreeMap, BTreeSet};

/// Where one source operand's value comes from.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Def {
    /// The block still holds its pre-program contents — no earlier op
    /// wrote it. The payload is the linear block index.
    Initial(u32),
    /// The value is the result of the given op (an index into the
    /// program's op list): the operand reads that op's target after it
    /// ran and before anything overwrote it.
    Op(usize),
}

/// Def-use chains, reaching definitions, and kill links for one program,
/// computed in a single forward walk over the op list.
pub struct DefUse {
    level_of: Vec<usize>,
    reaching: Vec<Vec<Def>>,
    users: Vec<Vec<usize>>,
    killed_by: Vec<Option<usize>>,
    initially_read: BTreeSet<u32>,
}

impl DefUse {
    /// Analyze `program`. Linear in ops + source operands.
    pub fn analyze(program: &XorProgram) -> Self {
        let n = program.op_count();
        let mut level_of = vec![0usize; n];
        for lv in 0..program.level_count() {
            for op in program.level_ops(lv) {
                level_of[op] = lv;
            }
        }
        let mut last_def: BTreeMap<u32, usize> = BTreeMap::new();
        let mut reaching: Vec<Vec<Def>> = Vec::with_capacity(n);
        let mut users: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut killed_by: Vec<Option<usize>> = vec![None; n];
        let mut initially_read: BTreeSet<u32> = BTreeSet::new();
        for op in 0..n {
            let mut slots = Vec::with_capacity(program.op_sources(op).len());
            for &s in program.op_sources(op) {
                match last_def.get(&s) {
                    Some(&producer) => {
                        if users[producer].last() != Some(&op) {
                            users[producer].push(op);
                        }
                        slots.push(Def::Op(producer));
                    }
                    None => {
                        initially_read.insert(s);
                        slots.push(Def::Initial(s));
                    }
                }
            }
            reaching.push(slots);
            if let Some(prev) = last_def.insert(program.op_target(op) as u32, op) {
                killed_by[prev] = Some(op);
            }
        }
        DefUse {
            level_of,
            reaching,
            users,
            killed_by,
            initially_read,
        }
    }

    /// The dependency level op `op` sits in.
    pub fn level_of(&self, op: usize) -> usize {
        self.level_of[op]
    }

    /// The reaching definition of each of op `op`'s source operands, in
    /// source order (parallel to [`XorProgram::op_sources`]).
    pub fn reaching(&self, op: usize) -> &[Def] {
        &self.reaching[op]
    }

    /// The ops that read op `op`'s result (each listed once), ascending.
    pub fn users(&self, op: usize) -> &[usize] {
        &self.users[op]
    }

    /// The later op that overwrites op `op`'s target, if any.
    pub fn killed_by(&self, op: usize) -> Option<usize> {
        self.killed_by[op]
    }

    /// Whether any op reads `block`'s *pre-program* contents (i.e. reads
    /// it before the first op that writes it, or the block is never
    /// written at all). A written block whose initial contents are also
    /// read cannot be repurposed as a scratch slot.
    pub fn initial_is_read(&self, block: u32) -> bool {
        self.initially_read.contains(&block)
    }
}

/// Backward liveness over ops: `result[k]` is `true` iff op `k`'s value
/// can flow into one of `outputs` (directly, or through a chain of later
/// ops). Ops marked `false` are dead — removing them cannot change any
/// output block, because each op *overwrites* its target (the prior value
/// never contributes), so a write that is shadowed or never read is
/// unobservable.
pub fn live_ops(program: &XorProgram, outputs: &BTreeSet<u32>) -> Vec<bool> {
    let n = program.op_count();
    let mut needed: BTreeSet<u32> = outputs.clone();
    let mut keep = vec![false; n];
    for op in (0..n).rev() {
        if needed.remove(&(program.op_target(op) as u32)) {
            keep[op] = true;
            needed.extend(program.op_sources(op).iter().copied());
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::grid::Grid;

    fn toy(targets: Vec<u32>, srcs: Vec<Vec<u32>>, level_off: Vec<u32>) -> XorProgram {
        let mut src_off = vec![0u32];
        let mut sources = Vec::new();
        for s in srcs {
            sources.extend_from_slice(&s);
            src_off.push(sources.len() as u32);
        }
        XorProgram::from_raw_parts(Grid::new(4, 4), targets, src_off, sources, level_off)
    }

    #[test]
    fn reaching_defs_distinguish_initial_from_producers() {
        // op0: b5 = b0^b1; op1: b12 = b5^b2
        let p = toy(vec![5, 12], vec![vec![0, 1], vec![5, 2]], vec![0, 1, 2]);
        let df = DefUse::analyze(&p);
        assert_eq!(df.reaching(0), &[Def::Initial(0), Def::Initial(1)]);
        assert_eq!(df.reaching(1), &[Def::Op(0), Def::Initial(2)]);
        assert_eq!(df.users(0), &[1]);
        assert!(df.users(1).is_empty());
        assert_eq!(df.killed_by(0), None);
        assert!(df.initial_is_read(0) && !df.initial_is_read(5));
        assert_eq!((df.level_of(0), df.level_of(1)), (0, 1));
    }

    #[test]
    fn kill_links_and_shadowed_defs() {
        // op0: b5 = b0^b1 (never read, overwritten); op1: b5 = b2^b3;
        // op2: b12 = b5^b0
        let p = toy(
            vec![5, 5, 12],
            vec![vec![0, 1], vec![2, 3], vec![5, 0]],
            vec![0, 1, 2, 3],
        );
        let df = DefUse::analyze(&p);
        assert_eq!(df.killed_by(0), Some(1));
        assert!(df.users(0).is_empty());
        assert_eq!(df.users(1), &[2]);
        assert_eq!(df.reaching(2), &[Def::Op(1), Def::Initial(0)]);
    }

    #[test]
    fn liveness_kills_shadowed_and_unread_chains() {
        // op0 shadowed by op1; op3 writes scratch nothing reads.
        let p = toy(
            vec![5, 5, 12, 6],
            vec![vec![0, 1], vec![2, 3], vec![5, 0], vec![1, 2]],
            vec![0, 1, 2, 4],
        );
        let keep = live_ops(&p, &BTreeSet::from([12]));
        assert_eq!(keep, vec![false, true, true, false]);
    }
}
