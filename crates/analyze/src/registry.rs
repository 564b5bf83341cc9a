//! Cross-file program registry over the parsed ASTs: a flattened
//! function table (with impl self-types), a struct/enum field index, and
//! the transitive set of `Secret`-bearing struct types.
//!
//! Shared by the AST-based `cross-function-taint` and `constant-time`
//! passes; built once per analysis run from every scoped [`FileModel`].

use crate::ast::{for_each_item, Fun, Item, StructDef, Ty};
use crate::model::FileModel;
use std::collections::{BTreeMap, BTreeSet};

/// One function, flattened out of its item tree.
pub(crate) struct FnEntry<'a> {
    pub model: usize,
    pub fun: &'a Fun,
    /// Impl/trait self type head, if the fn is a method.
    pub self_ty: Option<String>,
    /// Defined in `crates/mpc/src/secret.rs` (the wrapper module).
    pub in_secret_rs: bool,
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
    pub structs: BTreeMap<&'a str, &'a StructDef>,
    /// `(self_ty, method)` → index into `fns`.
    pub methods: BTreeMap<(String, String), usize>,
    /// Free fn name → indices into `fns`.
    pub free: BTreeMap<String, Vec<usize>>,
    /// Struct/enum names whose fields (transitively) carry `Secret`.
    pub secret_structs: BTreeSet<String>,
}

impl<'a> Registry<'a> {
    pub fn build(models: &'a [FileModel]) -> Registry<'a> {
        let mut fns = Vec::new();
        let mut structs: BTreeMap<&str, &StructDef> = BTreeMap::new();
        for (model, m) in models.iter().enumerate() {
            let in_secret_rs = m.rel.ends_with("mpc/src/secret.rs");
            let mut entry = |fun: &'a Fun, self_ty: Option<&String>| {
                fns.push(FnEntry {
                    model,
                    fun,
                    self_ty: self_ty.cloned(),
                    in_secret_rs,
                })
            };
            // Flattened through modules and bodies: a fn nested in a body
            // is an entry like any other.
            for_each_item(&m.ast, &mut |item| match item {
                Item::Fn(f) => entry(f, None),
                Item::Impl(ib) => ib.fns.iter().for_each(|f| entry(f, Some(&ib.self_ty))),
                Item::Struct(sd) => {
                    structs.entry(sd.name.as_str()).or_insert(sd);
                }
                Item::Mod(_) | Item::Other => {}
            });
        }
        let mut methods = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, e) in fns.iter().enumerate() {
            match &e.self_ty {
                Some(st) => {
                    methods.entry((st.clone(), e.fun.name.clone())).or_insert(i);
                }
                None => free.entry(e.fun.name.clone()).or_default().push(i),
            }
        }
        // Transitive closure: a struct is Secret-bearing if any field
        // type mentions `Secret` or another Secret-bearing struct.
        let mut secret_structs: BTreeSet<String> = BTreeSet::new();
        loop {
            let mut changed = false;
            for (name, sd) in &structs {
                if secret_structs.contains(*name) {
                    continue;
                }
                let bearing = sd.fields.iter().any(|(_, ty)| {
                    ty.mentions("Secret") || ty.idents.iter().any(|id| secret_structs.contains(id))
                });
                if bearing {
                    secret_structs.insert((*name).to_string());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Registry {
            models,
            fns,
            structs,
            methods,
            free,
            secret_structs,
        }
    }

    /// Whether a value of this type can carry secret material: the type
    /// mentions `Secret` or a `Secret`-bearing struct anywhere, or is
    /// `Self` inside such a type's impl.
    pub fn ty_secret(&self, ty: &Ty, self_ty: Option<&str>) -> bool {
        if ty.mentions("Secret") {
            return true;
        }
        if ty.idents.iter().any(|id| self.secret_structs.contains(id)) {
            return true;
        }
        if let Some(st) = self_ty {
            if ty.mentions("Self") && (st == "Secret" || self.secret_structs.contains(st)) {
                return true;
            }
        }
        false
    }

    /// The declared type of `struct_head.field` (named or tuple index).
    pub fn field_ty(&self, struct_head: &str, field: &str) -> Option<&Ty> {
        let sd = self.structs.get(struct_head)?;
        sd.fields.iter().find(|(n, _)| n == field).map(|(_, t)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secret_bearing_structs_close_transitively() {
        let src = r#"
pub struct Inner { shares: Secret<Vec<R64>> }
pub struct Outer { label: String, inner: Inner }
pub struct Clean { label: String, count: usize }
"#;
        let m = FileModel::parse("crates/mpc/src/x.rs", src);
        let models = vec![m];
        let reg = Registry::build(&models);
        assert!(reg.secret_structs.contains("Inner"));
        assert!(reg.secret_structs.contains("Outer"));
        assert!(!reg.secret_structs.contains("Clean"));
        assert!(reg.ty_secret(&Ty::simple("Outer"), None));
        assert!(!reg.ty_secret(&Ty::simple("Clean"), None));
    }

    #[test]
    fn methods_and_free_fns_indexed() {
        let src = r#"
impl Pkt { pub fn label(&self) -> String { self.label.clone() } }
pub fn helper() -> usize { 1 }
"#;
        let m = FileModel::parse("crates/mpc/src/x.rs", src);
        let models = vec![m];
        let reg = Registry::build(&models);
        assert!(reg
            .methods
            .contains_key(&("Pkt".to_string(), "label".to_string())));
        assert!(reg.free.contains_key("helper"));
    }
}
