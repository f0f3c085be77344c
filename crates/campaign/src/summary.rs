//! The campaign summary rule, shared by `eend-cli campaign`'s figure
//! view and the daemon's `/aggregate`.
//!
//! The paper's Figs 8–12 report one mean ± CI per (stack, x) cell over
//! the seeds of a single configuration. So a summary picks the swept x
//! axis — node count for a density sweep, speed for a speed sweep, the
//! per-flow rate otherwise — and then splits the records into one cell
//! per combination of the *other* swept axes' values: numeric rate,
//! nodes and speed first, then traffic, radio and failure, each in
//! first-appearance order. No cell pools samples from different grid
//! coordinates (a CI over mixed rates or mixed workload shapes would
//! measure axis spread, not seed noise).

use crate::spec::{BaseScenario, CampaignSpec, GridPoint};
use std::fmt;

/// A grid coordinate a campaign can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Per-flow offered rate, Kbit/s.
    Rate,
    /// Node count.
    Nodes,
    /// Random-waypoint top speed, m/s.
    Speed,
    /// Traffic-model label.
    Traffic,
    /// Radio-profile name.
    Radio,
    /// Failure-plan label.
    Failure,
}

impl Axis {
    /// Every axis, in the order cells are split on them.
    const ALL: [Axis; 6] =
        [Axis::Rate, Axis::Nodes, Axis::Speed, Axis::Traffic, Axis::Radio, Axis::Failure];

    /// The axis's CSV column name — also its `/aggregate` key.
    pub fn column(self) -> &'static str {
        match self {
            Axis::Rate => "rate_kbps",
            Axis::Nodes => "nodes",
            Axis::Speed => "speed_mps",
            Axis::Traffic => "traffic",
            Axis::Radio => "radio",
            Axis::Failure => "failure",
        }
    }

    /// The axis as figure titles name it.
    pub fn title(self) -> &'static str {
        match self {
            Axis::Rate => "rate Kbit/s",
            Axis::Nodes => "node count",
            Axis::Speed => "speed m/s",
            Axis::Traffic => "traffic",
            Axis::Radio => "radio",
            Axis::Failure => "failure",
        }
    }

    /// The axis's value at `p`.
    fn value(self, p: &GridPoint) -> AxisValue<'_> {
        match self {
            Axis::Rate => AxisValue::Num(p.rate_kbps),
            Axis::Nodes => AxisValue::Num(p.nodes as f64),
            Axis::Speed => AxisValue::Num(p.speed_mps),
            Axis::Traffic => AxisValue::Label(&p.traffic),
            Axis::Radio => AxisValue::Label(&p.radio),
            Axis::Failure => AxisValue::Label(&p.failure),
        }
    }
}

/// One axis value: a number for rate, nodes and speed, a label for the
/// categorical axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisValue<'a> {
    /// A numeric coordinate.
    Num(f64),
    /// A categorical label.
    Label(&'a str),
}

impl fmt::Display for AxisValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::Num(v) => write!(f, "{v}"),
            AxisValue::Label(s) => f.write_str(s),
        }
    }
}

/// A campaign's summary layout: its x axis and its cells.
#[derive(Debug, Clone)]
pub struct Summary<'a> {
    x: Axis,
    /// The swept non-x axes, each with its distinct values in
    /// first-appearance order; cells enumerate their cartesian product,
    /// the first axis outermost.
    split: Vec<(Axis, Vec<AxisValue<'a>>)>,
}

impl<'a> Summary<'a> {
    /// Lays out the summary of `spec`'s records at `points`: x is the
    /// node count when the node axis is swept (or the preset is the
    /// density study), the speed when the speed axis is, the rate
    /// otherwise; every other axis with more than one value among
    /// `points` splits the cells.
    pub fn new(spec: &CampaignSpec, points: impl IntoIterator<Item = &'a GridPoint>) -> Self {
        let x = if spec.node_counts.len() > 1 || spec.base == BaseScenario::Density {
            Axis::Nodes
        } else if spec.speeds_mps.len() > 1 {
            Axis::Speed
        } else {
            Axis::Rate
        };
        let mut split: Vec<(Axis, Vec<AxisValue<'a>>)> =
            Axis::ALL.iter().filter(|&&a| a != x).map(|&a| (a, Vec::new())).collect();
        for p in points {
            for (axis, values) in &mut split {
                let v = axis.value(p);
                if !values.contains(&v) {
                    values.push(v);
                }
            }
        }
        split.retain(|(_, values)| values.len() > 1);
        Summary { x, split }
    }

    /// The x axis.
    pub fn x_axis(&self) -> Axis {
        self.x
    }

    /// The x position of `p`.
    pub fn x(&self, p: &GridPoint) -> f64 {
        match self.x.value(p) {
            AxisValue::Num(v) => v,
            AxisValue::Label(_) => unreachable!("the x axis is numeric"),
        }
    }

    /// How many cells the records split into (1 when only x is swept).
    pub fn cells(&self) -> usize {
        self.split.iter().map(|(_, values)| values.len()).product()
    }

    /// The cell `p` falls in, in `0..self.cells()`.
    pub fn cell_of(&self, p: &GridPoint) -> usize {
        self.split.iter().fold(0, |cell, (axis, values)| {
            let v = axis.value(p);
            cell * values.len() + values.iter().position(|u| *u == v).expect("a summarized point")
        })
    }

    /// The axis values that fix cell `cell`, in split order (empty when
    /// only x is swept).
    pub fn key(&self, cell: usize) -> Vec<(Axis, AxisValue<'a>)> {
        let mut stride = self.cells();
        self.split
            .iter()
            .map(|(axis, values)| {
                stride /= values.len();
                (*axis, values[cell / stride % values.len()])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eend_wireless::{stacks, TrafficModel};

    fn layout(spec: &CampaignSpec) -> Vec<(usize, Vec<String>)> {
        let jobs = spec.expand();
        let s = Summary::new(spec, jobs.iter().map(|j| &j.point));
        (0..s.cells())
            .map(|c| {
                let n = jobs.iter().filter(|j| s.cell_of(&j.point) == c).count();
                (n, s.key(c).iter().map(|(a, v)| format!("{}={v}", a.column())).collect())
            })
            .collect()
    }

    fn small() -> CampaignSpec {
        CampaignSpec::new("summary", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
            .seeds(2)
            .secs(5)
    }

    #[test]
    fn an_x_only_sweep_is_one_cell() {
        let spec = small().rates(vec![2.0, 4.0, 6.0]);
        assert_eq!(layout(&spec), vec![(12, vec![])]);
        let jobs = spec.expand();
        let s = Summary::new(&spec, jobs.iter().map(|j| &j.point));
        assert_eq!(s.x_axis(), Axis::Rate);
        assert_eq!(s.x(&jobs[2].point), 4.0);
    }

    #[test]
    fn other_swept_axes_split_cells_numeric_first_in_first_appearance_order() {
        let spec = small()
            .rates(vec![4.0])
            .speeds(vec![5.0, 0.0])
            .traffic(vec![TrafficModel::Poisson, TrafficModel::Cbr]);
        let jobs = spec.expand();
        assert_eq!(Summary::new(&spec, jobs.iter().map(|j| &j.point)).x_axis(), Axis::Speed);
        let spec =
            small().rates(vec![2.0, 4.0]).traffic(vec![TrafficModel::Poisson, TrafficModel::Cbr]);
        assert_eq!(
            layout(&spec),
            vec![(8, vec!["traffic=poisson".to_owned()]), (8, vec!["traffic=cbr".to_owned()])]
        );
    }

    #[test]
    fn density_sweeps_x_over_nodes_and_splits_on_rates() {
        let spec = CampaignSpec::new("d", BaseScenario::Density)
            .stacks(vec![stacks::titan_pc()])
            .rates(vec![2.0, 4.0])
            .seeds(1)
            .secs(5);
        let jobs = spec.expand();
        let s = Summary::new(&spec, jobs.iter().map(|j| &j.point));
        assert_eq!(s.x_axis(), Axis::Nodes);
        assert_eq!(
            layout(&spec),
            vec![(2, vec!["rate_kbps=2".to_owned()]), (2, vec!["rate_kbps=4".to_owned()])]
        );
    }
}
