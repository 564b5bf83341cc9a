//! Cross-file function table over the parsed ASTs: every function of
//! every scoped file, flattened out of its item tree.
//!
//! The `constant-time` pass reads it; built once per analysis run from
//! every scoped [`FileModel`].

use crate::ast::{for_each_item, Fun, Item};
use crate::model::FileModel;

/// One function, flattened out of its item tree.
pub(crate) struct FnEntry<'a> {
    pub model: usize,
    pub fun: &'a Fun,
}

impl FnEntry<'_> {
    /// Whether the fn declares any return type at all.
    pub fn returns_value(&self) -> bool {
        !(self.fun.ret.head.is_empty() && self.fun.ret.idents.is_empty())
    }
}

pub(crate) struct Registry<'a> {
    pub models: &'a [FileModel],
    pub fns: Vec<FnEntry<'a>>,
}

impl<'a> Registry<'a> {
    pub fn build(models: &'a [FileModel]) -> Registry<'a> {
        let mut fns = Vec::new();
        for (model, m) in models.iter().enumerate() {
            // Flattened through modules, impls and bodies: a fn nested in
            // a body is an entry like any other.
            for_each_item(&m.ast, &mut |item| match item {
                Item::Fn(fun) => fns.push(FnEntry { model, fun }),
                Item::Impl(ib) => fns.extend(ib.fns.iter().map(|fun| FnEntry { model, fun })),
                Item::Mod(_) | Item::Other => {}
            });
        }
        Registry { models, fns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn methods_free_and_nested_fns_are_entries() {
        let src = r#"
impl Pkt { pub fn label(&self) -> String { self.label.clone() } }
pub fn helper() -> usize { fn inner() {} 1 }
mod m { fn deep() {} }
"#;
        let models = vec![FileModel::parse("crates/mpc/src/x.rs", src)];
        let reg = Registry::build(&models);
        let names: Vec<&str> = reg.fns.iter().map(|e| e.fun.name.as_str()).collect();
        assert_eq!(names, ["label", "helper", "inner", "deep"]);
        let returns: Vec<bool> = reg.fns.iter().map(FnEntry::returns_value).collect();
        assert_eq!(returns, [true, true, false, false]);
    }
}
