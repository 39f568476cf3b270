//! Tuples: ordered value lists stored in heaps.

use gaea_adt::Value;
use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// An ordered list of values; validated against a
/// [`crate::schema::Schema`] on insert/update.
///
/// The values live in one shared, immutable allocation, so cloning a
/// tuple is a reference-count bump: a heap page copied after a freeze
/// shares its tuples with the frozen page instead of re-allocating
/// them, and stored tuples never move in memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Wrap values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple {
            values: values.into(),
        }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Field by position (panics out of range, like slice indexing).
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Field by position, checked.
    pub fn try_get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Replace field `i`, returning the old value (copies the values
    /// first if another tuple shares them).
    pub fn replace(&mut self, i: usize, v: Value) -> Value {
        std::mem::replace(&mut Arc::make_mut(&mut self.values)[i], v)
    }

    /// Consume into values.
    pub fn into_values(self) -> Vec<Value> {
        self.values.to_vec()
    }
}

/// Serialized as `{"values": [...]}`, the shape of the plain-`Vec`
/// tuple it replaced, so stored snapshots read and write unchanged.
impl Serialize for Tuple {
    fn to_content(&self) -> Content {
        Content::Map(vec![(
            Content::Str("values".to_string()),
            self.values.to_content(),
        )])
    }
}

impl Deserialize for Tuple {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| DeError::new("expected map for Tuple"))?;
        let values = serde::content_get(map, "values")
            .ok_or_else(|| DeError::new("Tuple: missing field `values`"))?;
        Ok(Tuple::new(Vec::from_content(values)?))
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Tuple {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_and_replace() {
        let mut t = Tuple::new(vec![Value::Int4(1), Value::Text("x".into())]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(0), &Value::Int4(1));
        assert_eq!(t.try_get(5), None);
        let old = t.replace(0, Value::Int4(9));
        assert_eq!(old, Value::Int4(1));
        assert_eq!(t.get(0), &Value::Int4(9));
    }

    #[test]
    fn serde_shape_is_a_values_list() {
        let t = Tuple::new(vec![Value::Int4(1), Value::Text("x".into())]);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"{"values":[{"Int4":1},{"Text":"x"}]}"#);
        assert_eq!(serde_json::from_str::<Tuple>(&json).unwrap(), t);
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![Value::Int4(1), Value::Bool(true)]);
        assert_eq!(t.to_string(), "(1, true)");
    }
}
