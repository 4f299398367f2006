//! A proptest strategy for dexes with ragged package paths, where the
//! package tree, the feature table and their references most easily
//! part. Included with `#[path]` by the dex and libradar proptests.

use proptest::prelude::*;
use spector_dex::model::{CodeItem, DexFile, Instruction, MethodDef, MethodRef};
use spector_dex::sig::MethodSig;

/// A dex with ragged package paths: components that hold a `.` or a
/// byte that sorts before it (`$`, `-`), joined by `/` or by a `.`
/// inside one smali component (so `com/foo` and `com.foo` meet), the
/// default package, packages with a leading dot, methods of one
/// package interleaved with others', and internal invokes (sync and
/// async) to arbitrary methods.
pub fn ragged_dex() -> impl Strategy<Value = DexFile> {
    const COMPONENTS: [&str; 6] = ["a", "b", "a$", "a-b", "a.b", "$"];
    let method = (
        proptest::collection::vec((0usize..COMPONENTS.len(), any::<bool>()), 0..4),
        any::<bool>(),
        0u8..3,
        proptest::collection::vec((0u8..6, 0u32..64), 0..6),
    );
    proptest::collection::vec(method, 0..32).prop_map(|specs| {
        let n = specs.len() as u32;
        let methods = specs
            .iter()
            .enumerate()
            .map(|(i, (path, lead, class, ops))| {
                let mut smali = String::from("L");
                if *lead && !path.is_empty() {
                    smali.push('.');
                }
                for (k, &(c, dot)) in path.iter().enumerate() {
                    if k > 0 {
                        smali.push(if dot { '.' } else { '/' });
                    }
                    smali.push_str(COMPONENTS[c]);
                }
                if !path.is_empty() {
                    smali.push('/');
                }
                let descriptor = ["()V", "(I)V", "([Ljava/lang/String;J)Ljava/lang/Object;"][i % 3];
                smali.push_str(&format!(
                    "{};->m{i}{descriptor}",
                    ["K", "K$1", "a"][*class as usize]
                ));
                let target = |t: u32| MethodRef::Internal(t % n);
                MethodDef {
                    sig: smali.parse().expect("generated signatures are valid"),
                    code: CodeItem {
                        instructions: ops
                            .iter()
                            .map(|&(op, t)| match op {
                                0 => Instruction::Nop,
                                1 => Instruction::Return,
                                2 => Instruction::Const(t),
                                3 => Instruction::InvokeAsync {
                                    dispatcher: spector_dex::Dispatcher::Thread,
                                    target: target(t),
                                },
                                4 => Instruction::Invoke(MethodRef::External(MethodSig::new(
                                    "java.net", "Socket", "connect", "()V",
                                ))),
                                _ => Instruction::Invoke(target(t)),
                            })
                            .collect(),
                    },
                }
            })
            .collect();
        DexFile {
            methods,
            classes: vec![],
        }
    })
}
