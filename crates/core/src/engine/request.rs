//! The request/response pair served by the engine.
//!
//! A [`QueryRequest`] describes one unit of serving work: how many items to
//! return, which users to serve (everyone, a contiguous range, or an
//! explicit id list), and optionally which items to withhold per user (the
//! recommender scenario: never re-recommend what a user already rated).

use super::error::MipsError;
use crate::sync::{Arc, OnceLock};
use mips_data::sparse::SparseVec;
use mips_data::MfModel;
use mips_linalg::scaled_norm2;
use mips_topk::TopKList;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Which users a request serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserSelection {
    /// Every user of the model, in user order.
    All,
    /// A contiguous user range, in order.
    Range(Range<usize>),
    /// An explicit id list; results come back in input order, and repeated
    /// ids are allowed (each occurrence gets its result).
    Ids(Vec<usize>),
}

/// Per-user sets of item ids to withhold from results.
///
/// In recommender serving these are the items a user has already rated:
/// the model scores them highly by construction, but surfacing them again
/// is useless. Exclusions are applied exactly — the engine widens `k`
/// internally so filtered users still receive their true top-k among the
/// remaining items.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExclusionSet {
    per_user: HashMap<usize, HashSet<u32>>,
}

/// Shared empty set so `for_user` can return a reference for absent users.
fn empty_items() -> &'static HashSet<u32> {
    static EMPTY: OnceLock<HashSet<u32>> = OnceLock::new();
    EMPTY.get_or_init(HashSet::new)
}

impl ExclusionSet {
    /// An empty exclusion set.
    pub fn new() -> ExclusionSet {
        ExclusionSet::default()
    }

    /// Builds from `(user, item)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (usize, u32)>) -> ExclusionSet {
        let mut set = ExclusionSet::new();
        for (user, item) in pairs {
            set.insert(user, item);
        }
        set
    }

    /// Withholds `item` from `user`'s results.
    pub fn insert(&mut self, user: usize, item: u32) {
        self.per_user.entry(user).or_default().insert(item);
    }

    /// The items withheld for `user` (empty when none).
    pub fn for_user(&self, user: usize) -> &HashSet<u32> {
        self.per_user.get(&user).unwrap_or_else(|| empty_items())
    }

    /// Number of exclusions for `user`.
    pub fn count_for(&self, user: usize) -> usize {
        self.for_user(user).len()
    }

    /// `true` when no user has any exclusions.
    pub fn is_empty(&self) -> bool {
        self.per_user.values().all(HashSet::is_empty)
    }

    /// Iterates all `(user, items)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &HashSet<u32>)> {
        self.per_user.iter().map(|(u, v)| (*u, v))
    }
}

/// One serving request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Results per user; must be in `1..=num_items`.
    pub k: usize,
    /// The users to serve.
    pub users: UserSelection,
    /// Items to withhold per user, if any. Shared via [`Arc`] so a large
    /// set (every rated item of every user) is attached to each request
    /// without a deep copy; entries for users outside the selection are
    /// ignored, validation included.
    pub exclude: Option<Arc<ExclusionSet>>,
}

impl QueryRequest {
    /// Top-`k` for every user.
    pub fn top_k(k: usize) -> QueryRequest {
        QueryRequest {
            k,
            users: UserSelection::All,
            exclude: None,
        }
    }

    /// Restricts the request to a contiguous user range.
    pub fn users_range(mut self, range: Range<usize>) -> QueryRequest {
        self.users = UserSelection::Range(range);
        self
    }

    /// Restricts the request to an explicit user id list (results in input
    /// order).
    pub fn users(mut self, ids: impl Into<Vec<usize>>) -> QueryRequest {
        self.users = UserSelection::Ids(ids.into());
        self
    }

    /// Attaches an exclusion set (an owned set or a shared `Arc` — reuse
    /// the `Arc` across requests to avoid copying a large set).
    pub fn exclude(mut self, exclude: impl Into<Arc<ExclusionSet>>) -> QueryRequest {
        self.exclude = Some(exclude.into());
        self
    }

    /// Validates the request against a model, returning the first problem.
    pub fn validate(&self, model: &MfModel) -> Result<(), MipsError> {
        let (num_users, num_items) = (model.num_users(), model.num_items());
        if num_users == 0 || num_items == 0 {
            return Err(MipsError::EmptyModel);
        }
        if self.k == 0 || self.k > num_items {
            return Err(MipsError::InvalidK {
                k: self.k,
                num_items,
            });
        }
        match &self.users {
            UserSelection::All => {}
            UserSelection::Range(range) => {
                if range.start >= range.end {
                    return Err(MipsError::EmptyUserList);
                }
                if range.end > num_users {
                    return Err(MipsError::UserOutOfRange {
                        // The first requested id that is out of range.
                        user: range.start.max(num_users),
                        num_users,
                    });
                }
            }
            UserSelection::Ids(ids) => {
                if ids.is_empty() {
                    return Err(MipsError::EmptyUserList);
                }
                if let Some(&bad) = ids.iter().find(|&&u| u >= num_users) {
                    return Err(MipsError::UserOutOfRange {
                        user: bad,
                        num_users,
                    });
                }
            }
        }
        if let Some(exclude) = &self.exclude {
            // Only the selected users' exclusions matter (entries for other
            // users are ignored end to end). For `All` every user is
            // selected, so walking the map directly is the cheaper
            // equivalent.
            let check = |items: &HashSet<u32>| -> Result<(), MipsError> {
                match items.iter().find(|&&i| i as usize >= num_items) {
                    Some(&bad) => Err(MipsError::ItemOutOfRange {
                        item: bad,
                        num_items,
                    }),
                    None => Ok(()),
                }
            };
            match &self.users {
                UserSelection::All => {
                    for (_, items) in exclude.iter() {
                        check(items)?;
                    }
                }
                UserSelection::Range(range) => {
                    for u in range.clone() {
                        check(exclude.for_user(u))?;
                    }
                }
                UserSelection::Ids(ids) => {
                    for &u in ids {
                        check(exclude.for_user(u))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of result lists this request will produce on `model`.
    pub fn result_len(&self, model: &MfModel) -> usize {
        match &self.users {
            UserSelection::All => model.num_users(),
            UserSelection::Range(range) => range.len(),
            UserSelection::Ids(ids) => ids.len(),
        }
    }

    /// Iterates the selected user ids in result order (no materialization
    /// for `All`/`Range` selections).
    pub(crate) fn selected_users_iter<'a>(
        &'a self,
        model: &MfModel,
    ) -> Box<dyn Iterator<Item = usize> + 'a> {
        match &self.users {
            UserSelection::All => Box::new(0..model.num_users()),
            UserSelection::Range(range) => Box::new(range.clone()),
            UserSelection::Ids(ids) => Box::new(ids.iter().copied()),
        }
    }
}

/// The payload of a [`VectorQueryRequest`]: an ad-hoc factor-space vector,
/// dense or sparse.
///
/// Both encodings are scored identically (a sparse payload is densified
/// before validation and serving, bit-for-bit equal to sending the dense
/// form), so the choice is purely a wire-size/convenience one.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryVector {
    /// A dense factor vector of length `num_factors`.
    Dense(Vec<f64>),
    /// A sparse vector over the factor dimensions (`dim` must equal
    /// `num_factors`).
    Sparse(SparseVec),
}

impl QueryVector {
    /// The vector's dimensionality.
    pub fn dim(&self) -> usize {
        match self {
            QueryVector::Dense(v) => v.len(),
            QueryVector::Sparse(v) => v.dim(),
        }
    }

    /// The dense form of the vector (a copy for sparse payloads).
    pub fn densify(&self) -> Vec<f64> {
        match self {
            QueryVector::Dense(v) => v.clone(),
            QueryVector::Sparse(v) => v.densify(),
        }
    }
}

/// An ad-hoc retrieval request: score one query vector against the model's
/// item catalog and return the exact top-k. This is the point-lookup face
/// of the engine — no user id involved, so it serves "users" the model has
/// never seen (fresh embeddings, composed queries, sparse bag-of-words
/// vectors).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorQueryRequest {
    /// Results to return; must be in `1..=num_items`.
    pub k: usize,
    /// The query vector; its dimensionality must equal the model's factor
    /// count.
    pub vector: QueryVector,
}

impl VectorQueryRequest {
    /// Top-`k` for a dense query vector.
    pub fn dense(k: usize, vector: impl Into<Vec<f64>>) -> VectorQueryRequest {
        VectorQueryRequest {
            k,
            vector: QueryVector::Dense(vector.into()),
        }
    }

    /// Top-`k` for a sparse query vector.
    pub fn sparse(k: usize, vector: SparseVec) -> VectorQueryRequest {
        VectorQueryRequest {
            k,
            vector: QueryVector::Sparse(vector),
        }
    }

    /// Validates the request against a model, returning the first problem.
    pub fn validate(&self, model: &MfModel) -> Result<(), MipsError> {
        let (num_items, num_factors) = (model.num_items(), model.num_factors());
        if model.num_users() == 0 || num_items == 0 {
            return Err(MipsError::EmptyModel);
        }
        if self.k == 0 || self.k > num_items {
            return Err(MipsError::InvalidK {
                k: self.k,
                num_items,
            });
        }
        if self.vector.dim() != num_factors {
            return Err(MipsError::InvalidVector(format!(
                "dimensionality {} does not match the model's {num_factors} factors",
                self.vector.dim()
            )));
        }
        // SparseVec enforces finite values at construction; dense payloads
        // arrive unchecked.
        let values = match &self.vector {
            QueryVector::Dense(v) => {
                if let Some(pos) = v.iter().position(|x| !x.is_finite()) {
                    return Err(MipsError::InvalidVector(format!(
                        "non-finite value at dimension {pos}"
                    )));
                }
                v.as_slice()
            }
            QueryVector::Sparse(v) => v.values(),
        };
        // Cauchy–Schwarz: a finite ‖q‖·max‖i‖ bounds every score, so none
        // overflows (an overflowed `+∞ + −∞` would be a NaN score).
        let (norm, items) = (scaled_norm2(values), model.max_item_norm());
        if !(norm * items).is_finite() {
            return Err(MipsError::InvalidVector(format!(
                "vector norm {norm:e} times the largest item norm {items:e} overflows f64"
            )));
        }
        Ok(())
    }
}

/// The engine's answer to one [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// One top-k list per requested user, in request order.
    pub results: Vec<TopKList>,
    /// Display name of the backend that served the request.
    pub backend: String,
    /// The numeric path the serving solver ran: `f64` (direct) or
    /// `f32-rescore` (f32 screen + exact f64 rescore — see
    /// [`crate::precision::Precision`]). Results are bit-identical either
    /// way; this annotates how they were computed, never what they are.
    pub precision: crate::precision::Precision,
    /// `true` when the backend was chosen by a cached query plan rather
    /// than named explicitly.
    pub planned: bool,
    /// The model epoch the request was served from. Under
    /// [`swap_model`](super::Engine::swap_model) every request is served
    /// end to end on exactly one epoch — the one current when it entered
    /// the engine (or was admitted by the server) — and this field reports
    /// which.
    pub epoch: u64,
    /// Wall-clock seconds spent serving (excludes planning).
    pub serve_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_data::synth::{synth_model, SynthConfig};

    fn model() -> MfModel {
        synth_model(&SynthConfig {
            num_users: 10,
            num_items: 20,
            num_factors: 4,
            ..SynthConfig::default()
        })
    }

    #[test]
    fn validation_catches_each_malformed_shape() {
        let m = model();
        assert_eq!(
            QueryRequest::top_k(0).validate(&m),
            Err(MipsError::InvalidK {
                k: 0,
                num_items: 20
            })
        );
        assert_eq!(
            QueryRequest::top_k(21).validate(&m),
            Err(MipsError::InvalidK {
                k: 21,
                num_items: 20
            })
        );
        assert_eq!(
            QueryRequest::top_k(3).users(vec![0, 10]).validate(&m),
            Err(MipsError::UserOutOfRange {
                user: 10,
                num_users: 10
            })
        );
        assert_eq!(
            QueryRequest::top_k(3).users(Vec::new()).validate(&m),
            Err(MipsError::EmptyUserList)
        );
        assert_eq!(
            QueryRequest::top_k(3).users_range(4..4).validate(&m),
            Err(MipsError::EmptyUserList)
        );
        assert_eq!(
            QueryRequest::top_k(3).users_range(5..11).validate(&m),
            Err(MipsError::UserOutOfRange {
                user: 10,
                num_users: 10
            })
        );
        let excl = ExclusionSet::from_pairs([(0, 99u32)]);
        assert_eq!(
            QueryRequest::top_k(3).exclude(excl).validate(&m),
            Err(MipsError::ItemOutOfRange {
                item: 99,
                num_items: 20
            })
        );
        assert_eq!(QueryRequest::top_k(3).validate(&m), Ok(()));
        assert_eq!(QueryRequest::top_k(20).validate(&m), Ok(()));
    }

    #[test]
    fn exclusion_set_dedupes_and_reports_counts() {
        let mut e = ExclusionSet::new();
        e.insert(3, 7);
        e.insert(3, 7);
        e.insert(3, 9);
        assert!(e.for_user(3).contains(&7) && e.for_user(3).contains(&9));
        assert_eq!(e.count_for(3), 2);
        assert_eq!(e.count_for(4), 0);
        assert!(!e.is_empty());
        assert!(ExclusionSet::new().is_empty());
    }

    #[test]
    fn result_len_matches_selection() {
        let m = model();
        assert_eq!(QueryRequest::top_k(1).result_len(&m), 10);
        assert_eq!(QueryRequest::top_k(1).users_range(2..5).result_len(&m), 3);
        assert_eq!(
            QueryRequest::top_k(1).users(vec![1, 1, 2]).result_len(&m),
            3
        );
    }
}
