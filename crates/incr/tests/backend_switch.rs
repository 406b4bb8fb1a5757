//! One program re-run on a changing backend: the runtime it keeps is
//! rebuilt when `(workers, shards)` changes, left alone across an engine
//! re-run, and joined when the program is dropped. In its own test
//! binary so no sibling test's threads perturb the process count.

use nexuspp_core::testsupport::wait_until;
use nexuspp_core::Priority;
use nexuspp_frontend::Lowering;
use nexuspp_incr::{Access, Backend, Edit, IncrementalProgram};
use std::time::Duration;

const CELLS: u32 = 24;
const STEPS: u32 = 6;

/// Live threads in this process (Linux: one entry per task).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(1)
}

fn cell(i: u32) -> String {
    format!("cell{i}")
}

/// A halo stencil: the task for `(i, t)` reads the latest version of
/// cells `i - 1 ..= i + 1` and read-writes cell `i`.
fn stencil() -> IncrementalProgram {
    let mut edits = Vec::new();
    for t in 1..=STEPS {
        for i in 0..CELLS {
            let mut accesses: Vec<Access> = [i.wrapping_sub(1), i + 1]
                .into_iter()
                .filter(|&j| j < CELLS)
                .map(|j| Access::Read(cell(j)))
                .collect();
            accesses.push(Access::ReadWrite(cell(i)));
            edits.push(Edit::AddTask {
                key: u64::from(t * CELLS + i),
                fptr: 0x70 + u64::from(i % 5),
                priority: Priority::Normal,
                accesses,
            });
        }
    }
    let mut ip = IncrementalProgram::new();
    ip.edit_batch(edits).expect("the stencil is acyclic");
    ip
}

#[test]
fn switching_backends_matches_an_engine_twin_and_leaks_no_threads() {
    let baseline = thread_count();
    let schedule = [
        Backend::Runtime {
            workers: 2,
            shards: 4,
        },
        Backend::Runtime {
            workers: 1,
            shards: 2,
        },
        Backend::Engine { shards: 4 },
        Backend::Runtime {
            workers: 2,
            shards: 4,
        },
    ];
    let twin_backend = Backend::Engine { shards: 4 };
    let mut ip = stencil();
    let mut twin = stencil();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut kept = 0;
    for round in 0..3 {
        for (step, backend) in schedule.iter().enumerate() {
            // A seeded batch of one to three initial-contents edits.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let edits: Vec<Edit> = (0..1 + state % 3)
                .map(|k| Edit::SetInitial {
                    resource: cell(((state >> (8 * k)) % u64::from(CELLS)) as u32),
                    seed: state.rotate_left(k as u32) | 1,
                })
                .collect();
            ip.edit_batch(edits.clone()).expect("seed edits commit");
            twin.edit_batch(edits).expect("seed edits commit");
            let got = ip.rerun(Lowering::Renamed, backend);
            let want = twin.rerun(Lowering::Renamed, &twin_backend);
            let at = format!("round {round}, step {step} on {}", backend.name());
            assert_eq!(got.reran_keys, want.reran_keys, "{at}");
            assert_eq!(ip.final_contents(), twin.final_contents(), "{at}");
            // The program holds the workers of the last runtime it ran
            // on, and no other.
            if let Backend::Runtime { workers, .. } = *backend {
                kept = workers;
            }
            wait_until(
                Duration::from_secs(10),
                &format!("{at}: {kept} kept workers over baseline {baseline}"),
                || thread_count() == baseline + kept,
            );
        }
    }
    drop(ip);
    wait_until(
        Duration::from_secs(10),
        &format!("thread count back to baseline {baseline}"),
        || thread_count() <= baseline,
    );
}
