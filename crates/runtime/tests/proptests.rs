//! Property tests: the interpreter must terminate within its budget and
//! never panic on arbitrary (even adversarial) dex programs, and the
//! profiler's unique set must equal the set of reachable app methods.

use std::net::Ipv4Addr;
use std::sync::Arc;

use proptest::prelude::*;
use spector_dex::model::{
    CodeItem, Connector, DexFile, Dispatcher, Instruction, MethodDef, MethodRef, NetworkOp,
    SigIndex, WireShape,
};
use spector_dex::sig::MethodSig;
use spector_netsim::clock::Clock;
use spector_netsim::stack::NetStack;
use spector_runtime::{Runtime, RuntimeConfig, TraceMode};

fn sig(i: usize) -> MethodSig {
    MethodSig::new("com.prop", &format!("C{}", i % 5), &format!("m{i}"), "()V")
}

/// Strategy for one instruction given `n` methods (indices may go out
/// of range deliberately — the runtime must tolerate invalid targets).
fn instruction(n: usize) -> impl Strategy<Value = Instruction> {
    prop_oneof![
        Just(Instruction::Nop),
        any::<u32>().prop_map(Instruction::Const),
        (0..(n as u32 + 3)).prop_map(|t| Instruction::Invoke(MethodRef::Internal(t))),
        Just(Instruction::Invoke(MethodRef::External(MethodSig::new(
            "android.util",
            "Log",
            "d",
            "()I"
        )))),
        (0..(n as u32 + 3), 0u8..3).prop_map(|(t, d)| Instruction::InvokeAsync {
            dispatcher: match d {
                0 => Dispatcher::AsyncTask,
                1 => Dispatcher::Thread,
                _ => Dispatcher::Executor,
            },
            target: MethodRef::Internal(t),
        }),
        (0u64..1_000, 0u64..4_000).prop_map(|(send, recv)| Instruction::Network(NetworkOp {
            shape: WireShape::Plain,
            domain: "prop.example".into(),
            port: 443,
            send_bytes: send,
            recv_bytes: recv,
            connector: Connector::AndroidOkHttp,
        })),
        Just(Instruction::Return),
    ]
}

prop_compose! {
    fn random_dex()(n in 1usize..8)
        (bodies in proptest::collection::vec(
            proptest::collection::vec(instruction(8), 0..8), n),
         n in Just(n))
        -> DexFile
    {
        let methods = (0..n)
            .map(|i| MethodDef {
                sig: sig(i),
                code: CodeItem {
                    instructions: bodies[i].clone(),
                },
            })
            .collect();
        DexFile { methods, classes: vec![] }
    }
}

fn runtime_for(dex: DexFile, budget: u64) -> Runtime {
    let net = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
    Runtime::new(
        Arc::new(SigIndex::new(Arc::new(dex))),
        net,
        RuntimeConfig {
            max_call_depth: 16,
            instruction_budget: budget,
            trace_mode: TraceMode::UniqueMethods,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interpreter_terminates_within_budget(dex in random_dex(), budget in 1u64..5_000) {
        let entry = dex.methods[0].sig.clone();
        let mut rt = runtime_for(dex, budget);
        rt.invoke_entry(&entry);
        prop_assert!(rt.stats().instructions <= budget);
    }

    #[test]
    fn repeated_entry_is_idempotent_on_coverage(dex in random_dex()) {
        let entry = dex.methods[0].sig.clone();
        let mut rt = runtime_for(dex, 10_000);
        rt.invoke_entry(&entry);
        let first = rt.method_trace();
        rt.invoke_entry(&entry);
        prop_assert_eq!(rt.method_trace(), first);
    }

    #[test]
    fn traffic_conserved_between_stats_and_capture(dex in random_dex()) {
        let expected_ops = {
            // Upper bound: every Network instruction could fire many
            // times, but never when stats say zero.
            dex.methods
                .iter()
                .flat_map(|m| m.code.network_ops())
                .count()
        };
        let entry = dex.methods[0].sig.clone();
        let mut rt = runtime_for(dex, 20_000);
        rt.invoke_entry(&entry);
        let stats = rt.stats();
        if expected_ops == 0 {
            prop_assert_eq!(stats.network_ops, 0);
            prop_assert_eq!(rt.net().captured_count(), 0);
        }
        if stats.network_ops > 0 {
            // DNS (2 packets, first op only) + handshake (3) + teardown
            // (3) per op at minimum.
            prop_assert!(rt.net().captured_count() as u64 >= stats.network_ops * 6);
        }
    }

    #[test]
    fn unique_methods_subset_of_dex_plus_framework(dex in random_dex()) {
        let dex_sigs: std::collections::HashSet<MethodSig> =
            dex.signatures().cloned().collect();
        let entry = dex.methods[0].sig.clone();
        let mut rt = runtime_for(dex, 10_000);
        rt.invoke_entry(&entry);
        let trace = rt.method_trace();
        // Defined methods are ids, so in the dex by construction; the
        // rest must be framework methods the dex does not define.
        prop_assert_eq!(trace.method_count(), dex_sigs.len());
        prop_assert!(trace.contains(0), "the entry method");
        for method in trace.framework() {
            prop_assert!(!dex_sigs.contains(method), "defined method {}", method);
            prop_assert!(method.package().starts_with("android"), "unexpected method {}", method);
        }
    }
}
