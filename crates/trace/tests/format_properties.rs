//! Property tests of the `.ntr` serialization: every trace the format
//! accepts (one entry per address per task) round-trips exactly, and a
//! task that names one address twice is rejected at its repeated line.

use nexuspp_desim::SimTime;
use nexuspp_trace::format::{trace_from_str, trace_to_string, ParseError};
use nexuspp_trace::{AccessMode, MemCost, Param, TaskRecord, Trace};
use proptest::prelude::*;

fn mode_strategy() -> impl Strategy<Value = AccessMode> {
    prop_oneof![
        Just(AccessMode::In),
        Just(AccessMode::Out),
        Just(AccessMode::InOut),
    ]
}

fn cost_strategy() -> impl Strategy<Value = MemCost> {
    prop_oneof![
        Just(MemCost::None),
        any::<u64>().prop_map(|ps| MemCost::Time(SimTime::from_ps(ps))),
        any::<u64>().prop_map(MemCost::Bytes),
    ]
}

prop_compose! {
    fn record_strategy()(
        id in any::<u64>(),
        fptr in any::<u64>(),
        params in prop::collection::vec(
            (any::<u64>(), any::<u32>(), mode_strategy()),
            0..12
        ),
        exec_ps in any::<u64>(),
        read in cost_strategy(),
        write in cost_strategy(),
    ) -> TaskRecord {
        let mut seen = std::collections::HashSet::new();
        TaskRecord {
            id,
            fptr,
            params: params
                .into_iter()
                .filter(|&(a, _, _)| seen.insert(a))
                .map(|(a, s, m)| Param::new(a, s, m))
                .collect(),
            exec: SimTime::from_ps(exec_ps),
            read,
            write,
        }
    }
}

/// The hardware model takes one entry per address per task. A trace that
/// repeats one used to parse and then run as a simulated deadlock; the
/// parser now names the repeated line and address.
#[test]
fn repeated_address_in_one_task_is_a_syntax_error() {
    let text = "ntr 1 dup\n\
                t 0 1 e1000 r- w-\n\
                p 1000 64 in\n\
                p 1000 64 out\n\
                t 1 1 e1000 r- w-\n\
                p 1000 64 in\n";
    match trace_from_str(text) {
        Err(ParseError::Syntax { line, msg }) => {
            assert_eq!(line, 4, "the second `p 1000` line");
            assert!(msg.contains("1000"), "names the address: {msg}");
        }
        other => panic!("expected a syntax error, got {other:?}"),
    }
    // The same address in two different tasks is a dependence, not an error.
    let ok = "ntr 1 dep\nt 0 1 e1000 r- w-\np 1000 64 out\nt 1 1 e1000 r- w-\np 1000 64 in\n";
    assert_eq!(trace_from_str(ok).unwrap().tasks.len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ntr_roundtrip(
        name in "[a-zA-Z0-9 _.-]{0,24}",
        tasks in prop::collection::vec(record_strategy(), 0..24),
    ) {
        let trace = Trace::from_tasks(name, tasks);
        let text = trace_to_string(&trace);
        let back = trace_from_str(&text).expect("own output must parse");
        prop_assert_eq!(trace, back);
    }

    /// Parsing never panics on arbitrary input (errors are values).
    #[test]
    fn parser_total_on_garbage(input in "\\PC{0,256}") {
        let _ = trace_from_str(&input);
    }

    /// Parsing never panics on near-miss input (structured lines with
    /// random fields).
    #[test]
    fn parser_total_on_near_misses(
        a in any::<i64>(),
        b in "[a-z0-9]{1,8}",
        c in any::<u32>(),
    ) {
        let near = format!("ntr 1 x\nt {a} {b} e{c} r- w-\np {b} {c} in\np\nq {a}\n");
        let _ = trace_from_str(&near);
    }
}
