//! The simulated-thread interface.

use simcore::{SimError, SimResult};

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

    /// Post-mortem hook, run once by [`crate::NodeSim::crash`] on the
    /// body of every thread that was live when its node died, on the
    /// dead node's context. Bodies that carry recoverable state (ITask
    /// instances with partially processed partitions) push it back to
    /// their controller here. The default: nothing to salvage.
    fn salvage(&mut self, _cx: &mut WorkCx<'_>) -> SimResult<()> {
        Ok(())
    }
}
