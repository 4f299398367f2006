//! The package tree as it was built before it took its paths from a
//! dex view: method lists per raw path in a hash map, merged per dotted
//! package, and packages and levels sorted through a `/`-as-`.` mapped
//! comparison. Kept as the reference `PackageTree` is held to.

use std::cmp::Ordering;
use std::collections::HashMap;

use spector_dex::model::DexFile;

fn dotted(b: u8) -> u8 {
    if b == b'/' {
        b'.'
    } else {
        b
    }
}

fn is_separator(b: u8) -> bool {
    b == b'.' || b == b'/'
}

fn cmp_dotted(a: &str, b: &str) -> Ordering {
    a.bytes().map(dotted).cmp(b.bytes().map(dotted))
}

/// One subtree as the old tree lists it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subtree {
    /// The prefix, dotted.
    pub prefix: String,
    /// Byte length of the prefix.
    pub prefix_len: usize,
    /// Number of methods in the subtree.
    pub methods: usize,
    /// The subtree's method indices, ascending.
    pub members: Vec<u32>,
}

/// Every subtree of `dex`, in dotted prefix order.
pub fn subtrees(dex: &DexFile) -> Vec<Subtree> {
    let paths: Vec<&str> = dex.methods.iter().map(|m| m.sig.parts().0).collect();
    let mut by_path: HashMap<&str, Vec<u32>> = HashMap::new();
    for (i, &path) in paths.iter().enumerate() {
        by_path.entry(path).or_default().push(i as u32);
    }
    let mut by_path: Vec<(&str, Vec<u32>)> = by_path.into_iter().collect();
    by_path.sort_unstable_by(|a, b| cmp_dotted(a.0, b.0).then(a.0.cmp(b.0)));
    let mut by_package: Vec<(&str, Vec<u32>)> = Vec::with_capacity(by_path.len());
    for (path, methods) in by_path {
        match by_package.last_mut() {
            Some((last, members)) if cmp_dotted(last, path).is_eq() => {
                members.extend(methods);
                members.sort_unstable();
            }
            _ => by_package.push((path, methods)),
        }
    }
    let leading_dot = by_package.iter().any(|(path, _)| path.starts_with('.'));
    let mut levels: Vec<(&str, u32)> = Vec::new();
    for (id, &(path, _)) in by_package.iter().enumerate() {
        let id = id as u32;
        if path.is_empty() {
            if leading_dot {
                levels.push((path, id));
            }
            continue;
        }
        for (at, b) in path.bytes().enumerate() {
            if is_separator(b) {
                levels.push((&path[..at], id));
            }
        }
        levels.push((path, id));
    }
    levels.sort_unstable_by(|a, b| cmp_dotted(a.0, b.0).then(a.1.cmp(&b.1)));
    let packages: Vec<Vec<u32>> = by_package.into_iter().map(|(_, methods)| methods).collect();
    let mut out: Vec<(&str, Vec<u32>)> = Vec::new();
    for (prefix, id) in levels {
        match out.last_mut() {
            Some((last, ids)) if cmp_dotted(last, prefix).is_eq() => ids.push(id),
            _ => out.push((prefix, vec![id])),
        }
    }
    out.into_iter()
        .map(|(path, ids)| {
            let mut members: Vec<u32> = ids
                .iter()
                .flat_map(|&id| packages[id as usize].iter().copied())
                .collect();
            members.sort_unstable();
            Subtree {
                prefix: path.replace('/', "."),
                prefix_len: path.len(),
                methods: members.len(),
                members,
            }
        })
        .collect()
}
