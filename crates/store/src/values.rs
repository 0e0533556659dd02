//! Content-addressed value table.

use std::collections::HashMap;

use prov_model::{Value, ValueId};

/// Interns values: identical collections (which recur along every arc of a
/// trace) are stored once and referenced by [`ValueId`].
#[derive(Debug, Default, Clone)]
pub struct ValueTable {
    by_value: HashMap<Value, ValueId>,
    by_id: Vec<Value>,
}

impl ValueTable {
    /// Interns `value`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, value: &Value) -> ValueId {
        if let Some(&id) = self.by_value.get(value) {
            return id;
        }
        let id = ValueId(self.by_id.len() as u64);
        self.by_id.push(value.clone());
        self.by_value.insert(value.clone(), id);
        id
    }

    /// Interns an owned `value`, which moves into the table on first sight
    /// and is dropped otherwise (the replay path, which decoded it).
    pub fn intern_owned(&mut self, value: Value) -> ValueId {
        if let Some(&id) = self.by_value.get(&value) {
            return id;
        }
        let id = ValueId(self.by_id.len() as u64);
        self.by_value.insert(value.clone(), id);
        self.by_id.push(value);
        id
    }

    /// Resolves an id to its value.
    pub fn get(&self, id: ValueId) -> Option<&Value> {
        self.by_id.get(id.0 as usize)
    }

    /// Reverse lookup: the id of a value already interned, if any.
    pub fn lookup(&self, value: &Value) -> Option<&ValueId> {
        self.by_value.get(value)
    }

    /// Number of distinct values stored.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut t = ValueTable::default();
        let a = t.intern(&Value::from(vec!["x", "y"]));
        let b = t.intern(&Value::from(vec!["x", "y"]));
        let c = t.intern(&Value::str("x"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolution_round_trips() {
        let mut t = ValueTable::default();
        let v = Value::from(vec![vec![1i64], vec![2, 3]]);
        let id = t.intern(&v);
        assert_eq!(t.get(id), Some(&v));
        assert_eq!(t.get(ValueId(99)), None);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut t = ValueTable::default();
        assert_eq!(t.len(), 0);
        let ids: Vec<ValueId> = (0..5i64).map(|i| t.intern(&Value::int(i))).collect();
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(id.0, k as u64);
        }
    }
}
