//! The simulated-thread interface.

use simcore::SimError;

use crate::node::WorkCx;

/// What a simulated thread did with its scheduling quantum.
#[derive(Debug)]
pub enum StepOutcome {
    /// Made progress; schedule again next round.
    Ran,
    /// Blocked on something external (no CPU consumed); poll next round.
    Waiting,
    /// Completed successfully; the thread slot is retired.
    Finished,
    /// Died with an error (e.g. an OME). The slot is retired; the engine
    /// driving the node decides whether this fails the job (Hyracks),
    /// retries the attempt (Hadoop/YARN), or was an orderly ITask
    /// interrupt (which uses `Finished`, not `Failed`).
    Failed(SimError),
}

/// The body of a simulated thread.
///
/// A `Work` implementation is called once per scheduling round with a
/// [`WorkCx`] granting access to the node's clock, heap and disk. It
/// should consume up to its quantum of CPU ([`WorkCx::remaining`]) and
/// return; the scheduler converts per-thread CPU usage into node
/// wall-clock advancement under processor sharing.
pub trait Work {
    /// Runs for (up to) one quantum.
    fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome;

    /// Debug label shown in reports (e.g. `"map[part3]"`).
    fn label(&self) -> String;

    /// Downcast hook for crash recovery: implementations that carry
    /// salvageable state (ITask workers with partially processed
    /// partitions) return `Some(self)` so the engine can extract it
    /// after a node crash. The default — no salvageable state.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}
