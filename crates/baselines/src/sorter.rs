//! The sorter registry: every distributed sorter in the workspace behind
//! one `Copy` name, with one entry point that runs it on any backend.

use crate::{ams_sort, bitonic_sort, hss_sort, hyksort, radix_sort, sample_sort};
use crate::{AmsConfig, HssConfig, HykSortConfig, SampleSortConfig};
use comm::Communicator;
use sdssort::{sds_sort, SdsConfig, SortError, SortOutput, SortStats, Sortable};

/// One distributed sorter: the two SDS-Sort variants and every competitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sorter {
    /// SDS-Sort, fast (unstable) variant.
    Sds,
    /// SDS-Sort, stable variant.
    SdsStable,
    /// HykSort baseline.
    HykSort,
    /// Classical sample sort (PSRS).
    SampleSort,
    /// Parallel bitonic / odd-even block sort. Needs equal block sizes.
    Bitonic,
    /// Distributed radix sort. Needs a record type with
    /// [`Sortable::RADIX`].
    Radix,
    /// Multi-level AMS-sort peer.
    Ams,
    /// Histogram Sort with Sampling peer.
    Hss,
}

impl Sorter {
    /// Every sorter, in CLI listing order.
    pub const ALL: [Sorter; 8] = [
        Sorter::Sds,
        Sorter::SdsStable,
        Sorter::HykSort,
        Sorter::SampleSort,
        Sorter::Bitonic,
        Sorter::Radix,
        Sorter::Ams,
        Sorter::Hss,
    ];

    /// Command-line name (`sortcli --sorter <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Sorter::Sds => "sds",
            Sorter::SdsStable => "sds-stable",
            Sorter::HykSort => "hyksort",
            Sorter::SampleSort => "samplesort",
            Sorter::Bitonic => "bitonic",
            Sorter::Radix => "radix",
            Sorter::Ams => "ams",
            Sorter::Hss => "hss",
        }
    }

    /// Display label matching the paper's figure legends; emitted reports
    /// name their series by it.
    pub fn label(self) -> &'static str {
        match self {
            Sorter::Sds => "SDS-Sort",
            Sorter::SdsStable => "SDS-Sort/stable",
            Sorter::HykSort => "HykSort",
            Sorter::SampleSort => "SampleSort",
            Sorter::Bitonic => "Bitonic",
            Sorter::Radix => "Radix",
            Sorter::Ams => "AMS-sort",
            Sorter::Hss => "HSS",
        }
    }

    /// The sorter whose [`Sorter::name`] is `name`.
    pub fn parse(name: &str) -> Option<Sorter> {
        Sorter::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Sort `data` across `comm`. The SDS variants run `cfg` with
    /// `stable` set by the variant; every competitor runs its default
    /// configuration, charging compute as `cfg.charge` says.
    pub fn sort<T: Sortable, C: Communicator>(
        self,
        comm: &C,
        data: Vec<T>,
        cfg: &SdsConfig,
    ) -> Result<SortOutput<T>, SortError> {
        let charge = cfg.charge;
        match self {
            Sorter::Sds | Sorter::SdsStable => {
                let cfg = SdsConfig {
                    stable: self == Sorter::SdsStable,
                    ..*cfg
                };
                sds_sort(comm, data, &cfg)
            }
            Sorter::HykSort => {
                let cfg = HykSortConfig {
                    charge,
                    ..HykSortConfig::default()
                };
                hyksort(comm, data, &cfg)
            }
            Sorter::SampleSort => sample_sort(comm, data, &SampleSortConfig { charge }),
            Sorter::Bitonic => Ok(SortOutput {
                data: bitonic_sort(comm, data),
                stats: SortStats::default(),
            }),
            Sorter::Radix => radix_sort(comm, data),
            Sorter::Ams => {
                let cfg = AmsConfig {
                    charge,
                    ..AmsConfig::default()
                };
                ams_sort(comm, data, &cfg)
            }
            Sorter::Hss => {
                let cfg = HssConfig {
                    charge,
                    ..HssConfig::default()
                };
                hss_sort(comm, data, &cfg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back_and_are_distinct() {
        for s in Sorter::ALL {
            assert_eq!(Sorter::parse(s.name()), Some(s));
        }
        let labels: std::collections::HashSet<_> = Sorter::ALL.map(Sorter::label).into();
        assert_eq!(labels.len(), Sorter::ALL.len());
        assert_eq!(Sorter::parse("quicksort"), None);
    }
}
