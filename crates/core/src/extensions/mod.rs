//! Every algorithm variant of §6.
//!
//! * [`graph`] — Problem 3: trend-lines ([`IFocusGraph::path`]) and
//!   choropleths need only *adjacent* groups ordered correctly.
//! * [`topt`] — Problem 4: certify and order only the top-`t` groups.
//! * [`mistakes`] — Problem 5: stop early once the ordering of all but an
//!   allowed fraction of pairs is certified.
//! * [`values`] — Problem 6: ordering *plus* per-group value accuracy `±d`.
//! * [`partial`] — Problem 7: stream each group's estimate out the moment
//!   it becomes inactive.
//! * [`sum`] — §6.3.1/§6.3.2: `SUM` with known (Algorithm 4) and unknown
//!   (Algorithm 5) group sizes, and `COUNT`.
//! * [`multi`] — §6.3.5: two aggregates visualized simultaneously
//!   (Problem 8).
//! * [`noindex`] — §6.3.6: no index on the group-by attribute (Problem 9).
//! * [`adaptive`] — beyond the paper: an empirical-Bernstein ε schedule.
//!
//! Trends, top-t, mistakes and values are Algorithm 1 with a different
//! [`crate::ifocus::DeactivationRule`], run by the one IFOCUS round loop
//! ([`crate::ifocus::FocusStepper`]); partial results diff that loop's
//! active mask after every round.
//!
//! Selection predicates (§6.3.3) and multiple group-bys (§6.3.4) change
//! *which rows are eligible*, not the algorithm, and are provided by the
//! storage layer: `rapidviz_needletail::NeedleTail::group_handles` accepts
//! an arbitrary predicate, and a multi-attribute group-by is expressed by
//! handing the algorithm one group per cell of the cross product.

pub mod adaptive;
pub mod graph;
pub mod mistakes;
pub mod multi;
pub mod noindex;
pub mod partial;
pub mod sum;
pub mod topt;
pub mod values;

pub use adaptive::IFocusBernstein;
pub use graph::{is_graph_correct, GraphRule, IFocusGraph};
pub use mistakes::{IFocusMistakes, MistakesRule};
pub use multi::{IFocusMultiAggregate, MultiAggregateResult, PairGroupSource, VecPairGroup};
pub use noindex::{NoIndexSampler, StreamSource, VecStream};
pub use partial::{IFocusPartial, PartialEmission};
pub use sum::{
    count_config, ifocus_count, CountSource, IFocusSum1, IFocusSum1Stepper, IFocusSum2,
    IFocusSum2Stepper, SizedGroupSource, VecSizedGroup,
};
pub use topt::{IFocusTopT, TopTDirection, TopTRule};
pub use values::{IFocusValues, ValuesRule};
