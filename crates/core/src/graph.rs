//! The static task graph.
//!
//! Built from the program's input/output registrations (the paper's
//! `setInputType`/`setOutputType` glue code, §4.1); the IRS uses it for
//! the finish-line and temporal-locality rules (§5.3–5.4) and to decide
//! when an `MITask`'s tag groups are complete.

use std::collections::VecDeque;
use std::rc::Rc;

use simcore::TaskId;

use crate::task::{ITask, TaskKind};

/// Factory producing fresh task instances.
pub type TaskFactory = Rc<dyn Fn() -> Box<dyn ITask>>;

/// One logical task (a vertex of the graph).
pub struct TaskDesc {
    /// The task's id.
    pub id: TaskId,
    /// Debug name (`"map"`, `"reduce"`, `"merge"`).
    pub name: String,
    /// Single-partition or multi-partition (MITask).
    pub kind: TaskKind,
    factory: TaskFactory,
}

impl TaskDesc {
    /// Creates a fresh instance of this task.
    pub fn instantiate(&self) -> Box<dyn ITask> {
        (self.factory)()
    }
}

impl std::fmt::Debug for TaskDesc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskDesc")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish()
    }
}

/// The dataflow graph of logical tasks.
#[derive(Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskDesc>,
    /// Directed producer → consumer edges (self-loops allowed: an
    /// interrupted Merge feeds itself).
    edges: Vec<(TaskId, TaskId)>,
    /// [`TaskGraph::distance_to_finish`] of every task. The scheduler
    /// asks for it per comparison and per candidate, and the graph only
    /// changes in `add` and `connect`, so both tables are rebuilt there.
    finish: Vec<usize>,
    /// [`TaskGraph::distance_between`] of every ordered pair, row-major.
    between: Vec<usize>,
}

/// The hop count of "unreachable".
const FAR: usize = usize::MAX / 2;

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a single-input task.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn ITask> + 'static,
    ) -> TaskId {
        self.add(name, TaskKind::Single, Rc::new(factory))
    }

    /// Adds a multi-partition aggregation task (MITask).
    pub fn add_mitask(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn ITask> + 'static,
    ) -> TaskId {
        self.add(name, TaskKind::Multi, Rc::new(factory))
    }

    fn add(&mut self, name: impl Into<String>, kind: TaskKind, factory: TaskFactory) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(TaskDesc {
            id,
            name: name.into(),
            kind,
            factory,
        });
        self.reindex();
        id
    }

    /// Declares that `producer`'s queued outputs feed `consumer` (the
    /// paper's output-type = input-type registration).
    pub fn connect(&mut self, producer: TaskId, consumer: TaskId) {
        if !self.edges.contains(&(producer, consumer)) {
            self.edges.push((producer, consumer));
            self.reindex();
        }
    }

    /// Rebuilds the distance tables from the edges.
    fn reindex(&mut self) {
        let n = self.tasks.len();
        let sinks: Vec<usize> = (0..n)
            .filter(|&t| self.successors(TaskId(t as u32)).is_empty())
            .collect();
        self.finish = (0..n)
            .map(|t| {
                let hops = self.hops(t, false);
                sinks.iter().map(|&s| hops[s]).min().unwrap_or(FAR)
            })
            .collect();
        self.between = (0..n).flat_map(|t| self.hops(t, true)).collect();
    }

    /// Breadth-first hop counts from `from` along the edges, or along
    /// them either way when `undirected`; [`FAR`] where unreachable.
    fn hops(&self, from: usize, undirected: bool) -> Vec<usize> {
        let mut dist = vec![FAR; self.tasks.len()];
        dist[from] = 0;
        let mut frontier = VecDeque::from([from]);
        while let Some(u) = frontier.pop_front() {
            for &(p, c) in &self.edges {
                let (p, c) = (p.as_usize(), c.as_usize());
                let v = if p == u {
                    c
                } else if undirected && c == u {
                    p
                } else {
                    continue;
                };
                if dist[v] == FAR {
                    dist[v] = dist[u] + 1;
                    frontier.push_back(v);
                }
            }
        }
        dist
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Looks up a task.
    pub fn desc(&self, id: TaskId) -> &TaskDesc {
        &self.tasks[id.as_usize()]
    }

    /// All task ids in creation order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks.iter().map(|t| t.id)
    }

    /// Tasks feeding `id` (excluding itself).
    pub fn producers(&self, id: TaskId) -> Vec<TaskId> {
        self.edges
            .iter()
            .filter(|(p, c)| *c == id && *p != id)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Tasks fed by `id` (excluding itself).
    pub fn successors(&self, id: TaskId) -> Vec<TaskId> {
        self.edges
            .iter()
            .filter(|(p, c)| *p == id && *c != id)
            .map(|(_, c)| *c)
            .collect()
    }

    /// Hops from `id` to the nearest sink (a task with no successors):
    /// the finish-line metric. Sinks score 0; a task no sink is
    /// reachable from (a cyclic tail) scores `usize::MAX / 2`.
    pub fn distance_to_finish(&self, id: TaskId) -> usize {
        self.finish[id.as_usize()]
    }

    /// Undirected hop distance between two tasks (temporal locality
    /// metric: how far a partition's consumer is from what's running);
    /// `usize::MAX / 2` when they are not connected.
    pub fn distance_between(&self, a: TaskId, b: TaskId) -> usize {
        self.between[a.as_usize() * self.tasks.len() + b.as_usize()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskCx;
    use simcore::SimResult;

    struct Nop;

    impl ITask for Nop {
        fn initialize(&mut self, _: &mut TaskCx<'_, '_>) -> SimResult<()> {
            Ok(())
        }
        fn process_batch(
            &mut self,
            _: &mut TaskCx<'_, '_>,
            _: &mut dyn crate::partition::Partition,
        ) -> SimResult<u64> {
            Ok(0)
        }
        fn interrupt(&mut self, _: &mut TaskCx<'_, '_>) -> SimResult<()> {
            Ok(())
        }
        fn cleanup(&mut self, _: &mut TaskCx<'_, '_>) -> SimResult<()> {
            Ok(())
        }
    }

    /// map -> reduce -> merge (with merge self-loop), like Hyracks WC.
    fn wc_graph() -> (TaskGraph, TaskId, TaskId, TaskId) {
        let mut g = TaskGraph::new();
        let map = g.add_task("map", || Box::new(Nop));
        let reduce = g.add_task("reduce", || Box::new(Nop));
        let merge = g.add_mitask("merge", || Box::new(Nop));
        g.connect(map, reduce);
        g.connect(reduce, merge);
        g.connect(merge, merge);
        (g, map, reduce, merge)
    }

    #[test]
    fn structure_queries() {
        let (g, map, reduce, merge) = wc_graph();
        assert_eq!(g.len(), 3);
        assert_eq!(g.successors(map), vec![reduce]);
        assert_eq!(g.producers(merge), vec![reduce]);
        // Self-loop is invisible to producers/successors.
        assert!(g.successors(merge).is_empty());
        assert_eq!(g.desc(merge).kind, TaskKind::Multi);
        assert_eq!(g.desc(map).name, "map");
    }

    #[test]
    fn finish_line_distances() {
        let (g, map, reduce, merge) = wc_graph();
        assert_eq!(g.distance_to_finish(merge), 0);
        assert_eq!(g.distance_to_finish(reduce), 1);
        assert_eq!(g.distance_to_finish(map), 2);
    }

    #[test]
    fn pairwise_distances_are_undirected() {
        let (g, map, _reduce, merge) = wc_graph();
        assert_eq!(g.distance_between(map, merge), 2);
        assert_eq!(g.distance_between(merge, map), 2);
        assert_eq!(g.distance_between(map, map), 0);
    }

    /// Every `distance_to_finish` and `distance_between` of the Hyracks
    /// map → reduce → merge shape, the merge's self-loop included.
    #[test]
    fn hyracks_shape_distance_tables() {
        let (g, map, reduce, merge) = wc_graph();
        let ids = [map, reduce, merge];
        let finish: Vec<usize> = ids.iter().map(|&t| g.distance_to_finish(t)).collect();
        assert_eq!(finish, [2, 1, 0]);
        let between: Vec<Vec<usize>> = ids
            .iter()
            .map(|&a| ids.iter().map(|&b| g.distance_between(a, b)).collect())
            .collect();
        assert_eq!(between, [[0, 1, 2], [1, 0, 1], [2, 1, 0]]);
    }

    /// A chain grown one edge at a time: each `connect` moves the
    /// tables, and a tail that loops without a sink is `usize::MAX / 2`
    /// from the finish.
    #[test]
    fn chain_tables_follow_connect() {
        let mut g = TaskGraph::new();
        let t: Vec<TaskId> = (0..4)
            .map(|i| g.add_task(format!("t{i}"), || Box::new(Nop)))
            .collect();
        // No edges: every task is its own sink, and strangers are far.
        assert!(t.iter().all(|&x| g.distance_to_finish(x) == 0));
        assert_eq!(g.distance_between(t[0], t[3]), FAR);
        g.connect(t[0], t[1]);
        g.connect(t[1], t[2]);
        g.connect(t[2], t[3]);
        let finish: Vec<usize> = t.iter().map(|&x| g.distance_to_finish(x)).collect();
        assert_eq!(finish, [3, 2, 1, 0]);
        assert_eq!(g.distance_between(t[0], t[3]), 3);
        assert_eq!(g.distance_between(t[3], t[1]), 2);
        // t3 feeds t2 back: no sink is left downstream of anything.
        g.connect(t[3], t[2]);
        assert!(t.iter().all(|&x| g.distance_to_finish(x) == FAR));
        assert_eq!(
            g.distance_between(t[3], t[0]),
            3,
            "a back edge is no shortcut"
        );
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", || Box::new(Nop));
        let b = g.add_task("b", || Box::new(Nop));
        g.connect(a, b);
        g.connect(a, b);
        assert_eq!(g.successors(a).len(), 1);
    }

    #[test]
    fn factories_produce_instances() {
        let (g, map, ..) = wc_graph();
        let _task = g.desc(map).instantiate();
    }
}
