//! The endpoints: the compute side's M1 capture → RMMU translate →
//! router issue pipeline, the memory-stealing side's C1 service behind
//! a link's request Rx, and retirement back into the core.

use opencapi::transaction::MemRequest;
use rmmu::RoutedRequest;
use simkit::time::SimTime;

use super::{Completion, Dir, Ev, Fabric, FabricError, PathId};
use crate::fabric::stage::FabricMsg;
use crate::fabric::trace::WireDir;

impl Fabric {
    /// Issues one cacheline read on `path` at the current instant,
    /// returning the load's tag (matched by [`Completion::tag`] or, if
    /// an injected failure strands it, [`crate::fabric::LoadFault::tag`]).
    ///
    /// # Errors
    ///
    /// Fails on unknown paths, on paths poisoned by an injected failure
    /// ([`FabricError::PathFaulted`]), or if a pipeline stage rejects
    /// the load (which a correctly attached path never does).
    pub fn issue_read(&mut self, path: PathId) -> Result<u64, FabricError> {
        let state = self
            .paths
            .get_mut(&path.0)
            .ok_or(FabricError::UnknownPath(path))?;
        if let Some(kind) = state.poisoned {
            return Err(FabricError::PathFaulted { path, kind });
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        // Walk the path's window in cacheline strides.
        let addr = state.window_base + (state.issue_cursor * 128) % state.window_bytes;
        state.issue_cursor += 1;
        let ready_at = state.ready_at;
        let req = MemRequest::read(tag, addr);
        // The compute pipeline, stage by stage: M1 capture → RMMU
        // translate → route pick.
        let dev = self.capture.accept(&req)?;
        let t = self.translate.translate(dev)?;
        let ch = self.router.forward(t.network, t.bonded)?;
        let mut out = req;
        out.addr = t.remote_ea.as_u64();
        let routed = RoutedRequest {
            req: out,
            network: t.network,
            bonded: t.bonded,
        };
        let now = self.queue.now();
        // Channel ids are small link indices.
        let link = ch.0 as usize;
        self.inflight.insert(tag, (now, path.0, link));
        // CPU -> serDES -> FPGA stack -> LLC; a freshly switched path
        // additionally waits for its circuits to be programmed.
        let at = (now + self.params.edge_crossing()).max(ready_at);
        let msg = FabricMsg::Req(routed);
        self.queue.schedule(
            at,
            Ev::Offer {
                link,
                dir: Dir::ToMemory,
                msg,
            },
        );
        self.telemetry.inc(self.tele.issued);
        self.tracer.begin(tag, path.0, link, now, at);
        Ok(tag)
    }

    /// Schedules one cacheline read on `path` to issue at instant `at`
    /// (clamped to now). This is how cross-partition traffic enters a
    /// fabric: the remote sender picks `at` at least one boundary-link
    /// latency ahead, and the issue replays deterministically whenever
    /// the event pops. An issue landing on a path that a failure
    /// poisoned in the meantime is refused and counted
    /// ([`Fabric::injects_refused`]) instead of faulting the run.
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub(crate) fn schedule_read(&mut self, path: PathId, at: SimTime) -> Result<(), FabricError> {
        self.path_state(path)?;
        let at = at.max(self.queue.now());
        self.queue.schedule(at, Ev::Inject { path: path.0 });
        Ok(())
    }

    /// A deferred (possibly cross-partition) issue lands. A path
    /// poisoned since the injection was scheduled refuses the load
    /// instead of faulting the run — the sender cannot have known.
    pub(super) fn inject(&mut self, path: u32) -> Result<(), FabricError> {
        match self.issue_read(PathId(path)) {
            Ok(_) => Ok(()),
            Err(FabricError::PathFaulted { .. }) => {
                self.injects_refused += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Deferred issues refused because their path was poisoned by the
    /// time they landed.
    pub fn injects_refused(&self) -> u64 {
        self.injects_refused
    }

    /// Hands one message the Rx of `link` delivered to the stage behind
    /// it: a request to the donor's C1 engine and DRAM, whose response
    /// enters the link's response Tx once served; a response out of the
    /// compute FPGA back to the core.
    pub(super) fn deliver(
        &mut self,
        link: usize,
        dir: Dir,
        msg: FabricMsg,
        now: SimTime,
    ) -> Result<(), FabricError> {
        match (dir, msg) {
            (Dir::ToMemory, FabricMsg::Req(routed)) => {
                // FPGA stack in, then the C1 engine + donor serDES + DRAM.
                let stack = SimTime::from_ns(self.params.stack_crossing_ns);
                let serdes = SimTime::from_ns(self.params.serdes_crossing_ns);
                let Some(donor_idx) = self.slot(link).map(|s| s.donor) else {
                    return Ok(());
                };
                let donor = self
                    .donors
                    .get_mut(donor_idx)
                    .and_then(Option::as_mut)
                    .ok_or_else(|| {
                        FabricError::Protocol(format!(
                            "link {link} references detached donor {donor_idx}"
                        ))
                    })?;
                let ready = donor.serve(now + stack + serdes, &routed)? + serdes + stack;
                if self.tracer.active() {
                    self.tracer
                        .delivered(routed.req.tag.0, WireDir::Forward, now);
                    self.tracer.memory_done(routed.req.tag.0, ready);
                }
                let msg = FabricMsg::Resp(routed.req.response());
                self.queue.schedule(
                    ready,
                    Ev::Offer {
                        link,
                        dir: Dir::ToCompute,
                        msg,
                    },
                );
                Ok(())
            }
            (Dir::ToCompute, FabricMsg::Resp(resp)) => {
                if self.tracer.active() {
                    self.tracer.delivered(resp.tag.0, WireDir::Reverse, now);
                }
                // FPGA stack out + serDES back to core.
                let edge = self.params.edge_crossing();
                self.queue
                    .schedule_in(edge, Ev::Complete { tag: resp.tag.0 });
                Ok(())
            }
            (d, m) => Err(FabricError::Protocol(format!(
                "message {m:?} on wrong direction {d:?}"
            ))),
        }
    }

    /// Retires a completed load and every coincident completion behind
    /// it: a drained frame's responses cost one pass.
    pub(super) fn complete(
        &mut self,
        tag: u64,
        done: &mut Vec<Completion>,
    ) -> Result<(), FabricError> {
        self.retire(tag, done)?;
        while let Some(Ev::Complete { tag }) = self
            .queue
            .pop_coincident(|e| matches!(e, Ev::Complete { .. }))
        {
            self.retire(tag, done)?;
        }
        Ok(())
    }

    /// Retires one completed load.
    fn retire(&mut self, tag: u64, done: &mut Vec<Completion>) -> Result<(), FabricError> {
        let Some((issued, path, _link)) = self.inflight.remove(tag) else {
            if self.faulted.contains_key(&tag) {
                // The completion raced its own fault resolution: the
                // response was already past the failed component when
                // the fault was declared. The typed fault stands; the
                // late completion is absorbed, never double-delivered.
                self.late_completions += 1;
                self.telemetry.inc(self.tele.late_completions);
                return Ok(());
            }
            return Err(FabricError::Protocol(format!(
                "completion for unissued tag {tag}"
            )));
        };
        let now = self.queue.now();
        let latency = now - issued;
        if let Some(state) = self.paths.get_mut(&path) {
            state.completions.record(latency.as_ns());
            state.completed_bytes += 128;
        }
        self.observe_retired(tag, latency, now);
        done.push(Completion {
            tag,
            path: PathId(path),
            latency,
        });
        Ok(())
    }
}
