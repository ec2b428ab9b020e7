//! User clustering for the MAXIMUS index.
//!
//! §III-A of the paper: MAXIMUS groups users into a handful of clusters whose
//! centroids approximate the users' preferences, then bounds the error of the
//! approximation by the largest user–centroid *angle* in each cluster.
//! The paper measures plain Euclidean k-means within ~7 % of spherical
//! clustering's max angles at 2–3× less cost, so MAXIMUS uses k-means.
//!
//! Provided here:
//! * [`kmeans`](mod@kmeans) — Lloyd's algorithm with k-means++ seeding and empty-cluster
//!   repair,
//! * [`assign`] — assignment-only mode for dynamic user sets (§III-E),
//! * [`angles`] — per-cluster maximum-angle computation (the θ_b of Eqn. 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod angles;
pub mod assign;
pub mod kmeans;

pub use angles::max_angles_per_cluster;
pub use assign::assign_to_nearest;
pub use kmeans::{kmeans, Clustering, KMeansConfig};
