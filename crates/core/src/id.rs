//! Entity identifiers.
//!
//! Servers (service providers) and clients (feedback issuers) live in
//! different namespaces; the newtypes keep them from being confused — a
//! `ServerId` can never be passed where a `ClientId` is expected.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u64);

        impl $name {
            /// Creates an identifier from its raw value.
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// The raw numeric value.
            pub const fn value(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }
    };
}

define_id!(
    /// Identifier of a service provider (the entity being assessed).
    ServerId,
    "s"
);
define_id!(
    /// Identifier of a service consumer (the entity issuing feedback).
    ClientId,
    "c"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_and_display() {
        let s = ServerId::new(42);
        assert_eq!(s.value(), 42);
        assert_eq!(s.to_string(), "s42");
        let c = ClientId::from(7u64);
        assert_eq!(u64::from(c), 7);
        assert_eq!(c.to_string(), "c7");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = HashSet::new();
        set.insert(ClientId::new(1));
        set.insert(ClientId::new(1));
        set.insert(ClientId::new(2));
        assert_eq!(set.len(), 2);
        assert!(ServerId::new(1) < ServerId::new(2));
    }
}
