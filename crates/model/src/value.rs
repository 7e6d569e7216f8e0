//! Values: interned string constants, integer constants, and labeled nulls.
//!
//! Data exchange distinguishes *constants* (values that occur in the source)
//! from *labeled nulls* (placeholders invented for existentially quantified
//! variables, e.g. `N1`, `M1` in Figure 2 of the paper). A homomorphism must
//! fix constants but may map nulls anywhere, which is why the distinction is
//! carried in the value representation itself.

use std::collections::HashMap;
use std::fmt;

/// Handle to an interned string constant in a [`ValuePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// Handle to a labeled null registered in a [`ValuePool`].
///
/// Distinct `NullId`s denote possibly different unknown values; equality of
/// nulls is equality of labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NullId(pub u32);

/// A single data value: an integer constant, an interned string constant, or
/// a labeled null.
///
/// `Value` is `Copy` (16 bytes: the 8-byte `Int(i64)` payload plus the
/// discriminant, padded to alignment) so tuples can be compared and hashed
/// without chasing pointers; the string payloads live in the [`ValuePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An integer constant.
    Int(i64),
    /// An interned string constant.
    Str(Symbol),
    /// A labeled null (an unknown value invented during data exchange).
    Null(NullId),
}

// Pin the size claim above so it can't rot: column vectors, batch buffers,
// and the heap accounting all assume this exact footprint.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Whether this value is a constant (integer or string), as opposed to a
    /// labeled null.
    #[inline]
    pub fn is_constant(self) -> bool {
        !matches!(self, Value::Null(_))
    }

    /// Whether this value is a labeled null.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, Value::Null(_))
    }
}

/// Interner for string constants and registry of labeled nulls.
///
/// A pool is the value universe for one debugging scenario: the source
/// instance, the target instance, the dependencies, and all routes computed
/// over them share one pool. Interning makes [`Value`] `Copy` and makes value
/// equality a word comparison, which the inner loops of query evaluation and
/// `findHom` rely on.
#[derive(Debug, Default, Clone)]
pub struct ValuePool {
    strings: Vec<String>,
    by_string: HashMap<String, Symbol>,
    null_labels: Vec<String>,
    by_null_label: HashMap<String, NullId>,
    fresh_counter: u64,
}

impl ValuePool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a string constant, returning its symbol. Idempotent.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.by_string.get(s) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.strings.len()).expect("symbol space exhausted"));
        self.strings.push(s.to_owned());
        self.by_string.insert(s.to_owned(), sym);
        sym
    }

    /// Intern a string constant and wrap it as a [`Value`].
    pub fn str(&mut self, s: &str) -> Value {
        Value::Str(self.intern(s))
    }

    /// Look up an already-interned string without inserting.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.by_string.get(s).copied()
    }

    /// The string payload of a symbol.
    ///
    /// # Panics
    /// Panics if the symbol does not belong to this pool.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Register (or look up) a labeled null with an explicit label such as
    /// `"N1"`. Idempotent: the same label yields the same null.
    pub fn named_null(&mut self, label: &str) -> Value {
        if let Some(&id) = self.by_null_label.get(label) {
            return Value::Null(id);
        }
        let id = NullId(u32::try_from(self.null_labels.len()).expect("null space exhausted"));
        self.null_labels.push(label.to_owned());
        self.by_null_label.insert(label.to_owned(), id);
        Value::Null(id)
    }

    /// Invent a fresh labeled null with an auto-generated label (`⊥0`, `⊥1`,
    /// ...), guaranteed distinct from all existing nulls in the pool.
    pub fn fresh_null(&mut self) -> Value {
        loop {
            let label = format!("_N{}", self.fresh_counter);
            self.fresh_counter += 1;
            if !self.by_null_label.contains_key(&label) {
                return self.named_null(&label);
            }
        }
    }

    /// The label of a null.
    ///
    /// # Panics
    /// Panics if the null does not belong to this pool.
    pub fn null_label(&self, id: NullId) -> &str {
        &self.null_labels[id.0 as usize]
    }

    /// Number of interned strings.
    pub fn num_strings(&self) -> usize {
        self.strings.len()
    }

    /// Number of registered nulls.
    pub fn num_nulls(&self) -> usize {
        self.null_labels.len()
    }

    /// The value of `into` with the same meaning as `v` of this pool — the
    /// same integer, the same string, or the null with the same label — or
    /// `None` when `into` holds no such value. Ids are per pool, so this is
    /// how values compare across two pools (e.g. a scenario before and
    /// after an edit re-parses it). Allocation-free.
    pub fn translate(&self, v: Value, into: &ValuePool) -> Option<Value> {
        match v {
            Value::Int(_) => Some(v),
            Value::Str(s) => into.lookup(self.resolve(s)).map(Value::Str),
            Value::Null(n) => into
                .by_null_label
                .get(self.null_label(n))
                .map(|&id| Value::Null(id)),
        }
    }

    /// Render a value as a human-readable string.
    pub fn value_to_string(&self, v: Value) -> String {
        match v {
            Value::Int(i) => i.to_string(),
            Value::Str(s) => self.resolve(s).to_owned(),
            Value::Null(n) => self.null_label(n).to_owned(),
        }
    }

    /// Display adaptor: `format!("{}", pool.display(v))` renders the value.
    pub fn display(&self, v: Value) -> DisplayValue<'_> {
        DisplayValue {
            pool: self,
            value: v,
        }
    }
}

/// Adaptor returned by [`ValuePool::display`].
pub struct DisplayValue<'a> {
    pool: &'a ValuePool,
    value: Value,
}

impl fmt::Display for DisplayValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => f.write_str(self.pool.resolve(s)),
            Value::Null(n) => f.write_str(self.pool.null_label(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut pool = ValuePool::new();
        let a = pool.intern("Seattle");
        let b = pool.intern("Seattle");
        assert_eq!(a, b);
        assert_eq!(pool.resolve(a), "Seattle");
        assert_eq!(pool.num_strings(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut pool = ValuePool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        assert_ne!(a, b);
    }

    #[test]
    fn named_nulls_are_idempotent_and_distinct_from_fresh() {
        let mut pool = ValuePool::new();
        let n1 = pool.named_null("N1");
        let n1_again = pool.named_null("N1");
        assert_eq!(n1, n1_again);
        let fresh = pool.fresh_null();
        assert_ne!(n1, fresh);
        assert!(fresh.is_null());
    }

    #[test]
    fn fresh_nulls_never_collide() {
        let mut pool = ValuePool::new();
        // Pre-register a label that the fresh generator would otherwise produce.
        let taken = pool.named_null("_N0");
        let fresh = pool.fresh_null();
        assert_ne!(taken, fresh);
    }

    #[test]
    fn constants_and_nulls_are_distinguished() {
        let mut pool = ValuePool::new();
        assert!(Value::Int(42).is_constant());
        assert!(pool.str("x").is_constant());
        assert!(pool.named_null("N").is_null());
        assert!(!pool.named_null("N").is_constant());
    }

    #[test]
    fn display_renders_all_variants() {
        let mut pool = ValuePool::new();
        let s = pool.str("hello");
        let n = pool.named_null("N7");
        assert_eq!(pool.display(Value::Int(5)).to_string(), "5");
        assert_eq!(pool.display(s).to_string(), "hello");
        assert_eq!(pool.display(n).to_string(), "N7");
    }

    #[test]
    fn translate_matches_by_meaning_not_id() {
        let mut old = ValuePool::new();
        let mut new = ValuePool::new();
        let _pad = new.str("padding"); // shift symbol ids
        let (ox, on) = (old.str("x"), old.named_null("N"));
        let (nx, nn) = (new.str("x"), new.named_null("N"));
        assert_ne!(ox, nx);
        assert_eq!(old.translate(ox, &new), Some(nx));
        assert_eq!(old.translate(on, &new), Some(nn));
        assert_eq!(old.translate(Value::Int(5), &new), Some(Value::Int(5)));
        // A string and a null with the same text never alias, and values
        // the other pool never interned have no translation.
        let five = old.str("5");
        let n5 = old.named_null("x");
        assert_eq!(old.translate(five, &new), None);
        assert_eq!(old.translate(n5, &new), None);
        assert_eq!(new.translate(nx, &old), Some(ox));
    }

    #[test]
    fn lookup_does_not_insert() {
        let pool = ValuePool::new();
        assert!(pool.lookup("missing").is_none());
        assert_eq!(pool.num_strings(), 0);
    }
}
