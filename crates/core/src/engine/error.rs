//! The typed error surface of the serving engine.
//!
//! Every fallible engine entry point returns [`MipsError`] instead of
//! panicking: malformed requests from remote callers are an expected input
//! class for a serving system, not a programming error.

/// Everything that can go wrong assembling an engine or serving a request.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MipsError {
    /// `k` is zero or exceeds the item catalog.
    InvalidK {
        /// The requested `k`.
        k: usize,
        /// Items in the model's catalog.
        num_items: usize,
    },
    /// A requested user id does not exist in the model.
    UserOutOfRange {
        /// The first requested user id that is out of range.
        user: usize,
        /// Users in the model.
        num_users: usize,
    },
    /// An excluded item id does not exist in the model.
    ItemOutOfRange {
        /// The offending item id.
        item: u32,
        /// Items in the model's catalog.
        num_items: usize,
    },
    /// The request selects no users (empty id list or empty range).
    EmptyUserList,
    /// A vector query's payload is malformed (wrong dimensionality,
    /// non-finite values, or invalid sparse encoding).
    InvalidVector(String),
    /// The model has no users or no items.
    EmptyModel,
    /// No backend is registered or built in under the requested key.
    UnknownBackend {
        /// The key that failed to resolve.
        key: String,
    },
    /// A backend with this key is already registered.
    DuplicateBackend {
        /// The colliding key.
        key: String,
    },
    /// The engine was built without any backends.
    NoBackends,
    /// A configuration value is out of its valid domain.
    InvalidConfig(String),
    /// A backend failed to construct its index.
    BackendBuild {
        /// The backend's registry key.
        key: String,
        /// Human-readable cause.
        message: String,
    },
    /// The serving runtime refused a submission because its bounded queue
    /// is full (backpressure; retry later or use the blocking `submit`).
    ServerOverloaded {
        /// The queue bound that was hit, in sub-requests.
        capacity: usize,
    },
    /// The serving runtime is shutting down and no longer accepts work.
    ServerShutdown,
    /// A worker thread panicked while serving this request (the runtime
    /// itself survives; other requests are unaffected).
    WorkerPanicked {
        /// The panic payload, when it carried a message.
        message: String,
    },
}

impl MipsError {
    /// The HTTP status code this error maps to on the wire — the canonical
    /// mapping used by the `mips-net` front end, kept next to the error
    /// type so new variants pick a status in the same change.
    ///
    /// The classes:
    ///
    /// * malformed requests (bad `k`, unknown users/items, empty
    ///   selections) → `400 Bad Request`;
    /// * a request naming a backend that is not registered → `404 Not
    ///   Found`;
    /// * backpressure ([`MipsError::ServerOverloaded`]) → `429 Too Many
    ///   Requests` (pair it with a `Retry-After` header);
    /// * shutdown/unavailable states → `503 Service Unavailable`;
    /// * everything else (construction failures, worker panics) → `500`.
    pub fn http_status(&self) -> u16 {
        match self {
            MipsError::InvalidK { .. }
            | MipsError::UserOutOfRange { .. }
            | MipsError::ItemOutOfRange { .. }
            | MipsError::EmptyUserList
            | MipsError::InvalidVector(_)
            | MipsError::InvalidConfig(_) => 400,
            MipsError::UnknownBackend { .. } => 404,
            MipsError::DuplicateBackend { .. } => 409,
            MipsError::ServerOverloaded { .. } => 429,
            MipsError::EmptyModel | MipsError::ServerShutdown => 503,
            MipsError::NoBackends
            | MipsError::BackendBuild { .. }
            | MipsError::WorkerPanicked { .. } => 500,
        }
    }

    /// `true` when [`MipsError::http_status`] is a 4xx — the request was at
    /// fault, and retrying it unchanged cannot succeed.
    pub fn is_client_error(&self) -> bool {
        (400..500).contains(&self.http_status())
    }
}

impl std::fmt::Display for MipsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MipsError::InvalidK { k, num_items } => {
                write!(f, "invalid k = {k}: must be in 1..={num_items}")
            }
            MipsError::UserOutOfRange { user, num_users } => {
                write!(
                    f,
                    "user id {user} out of range: model has {num_users} users"
                )
            }
            MipsError::ItemOutOfRange { item, num_items } => {
                write!(
                    f,
                    "excluded item id {item} out of range: model has {num_items} items"
                )
            }
            MipsError::EmptyUserList => write!(f, "request selects no users"),
            MipsError::InvalidVector(msg) => write!(f, "invalid query vector: {msg}"),
            MipsError::EmptyModel => write!(f, "model has no users or no items"),
            MipsError::UnknownBackend { key } => {
                write!(f, "no backend registered under key {key:?}")
            }
            MipsError::DuplicateBackend { key } => {
                write!(f, "backend key {key:?} registered twice")
            }
            MipsError::NoBackends => write!(f, "engine has no registered backends"),
            MipsError::InvalidConfig(msg) => write!(f, "invalid engine config: {msg}"),
            MipsError::BackendBuild { key, message } => {
                write!(f, "backend {key:?} failed to build: {message}")
            }
            MipsError::ServerOverloaded { capacity } => {
                write!(
                    f,
                    "server overloaded: submission queue at capacity ({capacity} sub-requests)"
                )
            }
            MipsError::ServerShutdown => write!(f, "server is shutting down"),
            MipsError::WorkerPanicked { message } => {
                write!(f, "serving worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for MipsError {}

#[cfg(test)]
mod tests {
    use super::MipsError;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(MipsError, &str)> = vec![
            (MipsError::InvalidK { k: 0, num_items: 9 }, "invalid k = 0"),
            (
                MipsError::UserOutOfRange {
                    user: 12,
                    num_users: 10,
                },
                "user id 12",
            ),
            (MipsError::EmptyUserList, "no users"),
            (MipsError::UnknownBackend { key: "nope".into() }, "\"nope\""),
            (MipsError::NoBackends, "no registered backends"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&MipsError::EmptyModel);
    }

    #[test]
    fn http_status_classes() {
        assert_eq!(
            MipsError::InvalidK { k: 0, num_items: 9 }.http_status(),
            400
        );
        assert_eq!(
            MipsError::UserOutOfRange {
                user: 9,
                num_users: 9
            }
            .http_status(),
            400
        );
        assert_eq!(MipsError::EmptyUserList.http_status(), 400);
        assert_eq!(
            MipsError::UnknownBackend { key: "x".into() }.http_status(),
            404
        );
        assert_eq!(
            MipsError::ServerOverloaded { capacity: 4 }.http_status(),
            429
        );
        assert_eq!(MipsError::ServerShutdown.http_status(), 503);
        assert_eq!(
            MipsError::WorkerPanicked { message: "".into() }.http_status(),
            500
        );
        assert!(MipsError::EmptyUserList.is_client_error());
        assert!(MipsError::ServerOverloaded { capacity: 4 }.is_client_error());
        assert!(!MipsError::ServerShutdown.is_client_error());
    }
}
