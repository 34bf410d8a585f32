//! A small, dependency-free statistics toolkit.
//!
//! The workspace tests history independence statistically: the HI-PMA's
//! balance elements and capacity parameter are pooled across trials and
//! histories into one χ² goodness-of-fit test ([`uniformity`]), and
//! the reservoir sampler, the capacity rule and the HI allocator check
//! their own distributions with χ² unit tests. That requires:
//!
//! * [`gamma`] — log-gamma and the regularized incomplete gamma functions;
//! * [`chi2`] — the χ² statistic, its survival function and a goodness-of-fit
//!   helper returning a p-value;
//! * [`uniformity`] — the pooled test of balances and capacities, and the
//!   paper's p-value-of-p-values check of its calibration;
//! * [`summary`] — mean/percentile summaries used by the I/O-distribution
//!   experiments (Lemma 15's tail comparison).

pub mod chi2;
pub mod gamma;
pub mod summary;
pub mod uniformity;

pub use chi2::{chi2_gof_uniform, chi2_statistic_uniform, chi2_survival, Chi2Outcome};
pub use gamma::{ln_gamma, reg_gamma_lower, reg_gamma_upper};
pub use summary::Summary;
pub use uniformity::{uniformity_of_p_values, Pooled, Report};
