"""Algorithm SGL — Strong Global Learning (§4).

Every agent has to learn the labels of *all* participating agents and to be
aware that it has done so.  Solving SGL immediately solves team size, leader
election, perfect renaming and gossiping (see :mod:`repro.teams.problems`).

The algorithm, as implemented by :class:`SGLController`:

* an agent wakes up in state **traveller** and executes Algorithm
  RV-asynch-poly until a meeting sends it to state **ghost** (someone has
  heard of a label smaller than its own) or to state **explorer** (it met a
  non-explorer and no smaller label was heard of); in the latter case the
  smallest-labelled non-explorer it met becomes its **token** and transits to
  state ghost;
* an **explorer** runs Procedure ESST with its token (Phase 1), learns a size
  bound ``E`` (the final ESST phase index, which exceeds the true size ``n``),
  backtracks, resumes RV-asynch-poly from where it was interrupted until it
  has performed the rendezvous budget of edge traversals or hears of a smaller
  label (Phase 2), and finally (Phase 3) either seeks its token — becoming a
  ghost or outputting — or, when it still knows of no smaller label (only the
  minimum-label agent ends up here), performs one full exploration to collect
  every ghost's bag, declares its bag complete, and performs the reverse
  exploration to spread that fact before outputting;
* a **ghost** stops at the end of its current edge and outputs as soon as a
  meeting tells it that its bag is complete.

Deviations from the paper, each made so that SGL runs end to end: the Phase-2
budget ``Π(E(n), |L|)`` is replaced by the pluggable, calibrated budget of the
cost model, the size bound uses the ESST phase index rather than the ESST
cost, and agents react to a meeting at the next node they reach (at most one
extra edge traversal) rather than instantaneously.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..exceptions import LabelError
from ..exploration.cost_model import CostModel, default_cost_model
from ..exploration.esst import TokenTracker, esst_procedure
from ..exploration.uxs import next_port
from ..exploration.walker import Tape, backtrack, step
from ..core.labels import label_length, validate_label
from ..core.rendezvous import rv_route
from ..sim.actions import MeetingEvent, Observation
from ..sim.agent import AgentController, AgentProgram
from .bag import Bag
from .states import EXPLORER, GHOST, TRAVELLER

__all__ = ["SGLController"]


class SGLController(AgentController):
    """One agent of Algorithm SGL.

    Parameters
    ----------
    name:
        Engine-level agent name (unique per simulation).
    label:
        The agent's label (strictly positive integer, unique in the team).
    model:
        Cost model; defaults to :func:`default_cost_model`.
    value:
        Optional initial value carried by the agent (used by the gossiping
        application); it travels inside the bag next to the label.
    """

    def __init__(
        self,
        name: str,
        label: int,
        model: Optional[CostModel] = None,
        value: Any = None,
    ) -> None:
        super().__init__(name, validate_label(label))
        self._model = model if model is not None else default_cost_model()
        self._value = value
        self.bag = Bag({label: value})
        self.state = TRAVELLER

        # --- flags shared between the meeting hook and the program ---------
        self._pending_transition: Optional[str] = None
        self._token_label: Optional[int] = None
        self._token_tracker: Optional[TokenTracker] = None
        self._token_has_output = False
        self._flagged = False  # someone told us the complete set of labels
        self._bag_complete = False
        #: Per-peer memo of the last meeting: ``name -> (agent snapshot,
        #: is-our-token, token-had-output, bag snapshot)``.  The engine
        #: shares one :class:`AgentSnapshot` object across meetings while a
        #: peer's public state is unchanged, so an *identical* snapshot means
        #: the whole exchange with that peer is a repeat — only the token
        #: sighting (a count, not a state) needs recording.  Bag snapshots
        #: are likewise identity-stable, so a changed snapshot with an
        #: unchanged bag still skips the (idempotent) merge.
        self._peer_seen: Dict[str, Tuple[Any, bool, bool, Any]] = {}

        self.public.update(
            {
                "label": label,
                "state": self.state,
                "bag": self.bag.snapshot(),
                "bag_complete": False,
                "has_output": False,
            }
        )
        #: Bumped on every observable change of :attr:`public`; the engine
        #: uses it to share meeting snapshots across meetings (see
        #: ``AsyncEngine._emit_meeting``).
        self.public_version = 0

    # ------------------------------------------------------------------
    # public-state bookkeeping
    # ------------------------------------------------------------------
    @property
    def model(self) -> CostModel:
        """The cost model this agent runs under."""
        return self._model

    @property
    def token_label(self) -> Optional[int]:
        """Label of the agent used as this explorer's token (if any)."""
        return self._token_label

    def _sync_public(self) -> None:
        # Change detection is by identity: states are module constants, bag
        # snapshots are cached tuples whose identity changes exactly when the
        # bag does, and the flags are bools.  The version therefore bumps iff
        # an observable field actually changed, which is what lets the engine
        # reuse meeting snapshots.
        public = self.public
        changed = False
        if public["state"] is not self.state:
            public["state"] = self.state
            changed = True
        snap = self.bag.snapshot()
        if public["bag"] is not snap:
            public["bag"] = snap
            changed = True
        if public["bag_complete"] is not self._bag_complete:
            public["bag_complete"] = self._bag_complete
            changed = True
        has_output = self.output is not None
        if public["has_output"] is not has_output:
            public["has_output"] = has_output
            changed = True
        if changed:
            self.public_version += 1

    def _set_state(self, state: str) -> None:
        self.state = state
        self._sync_public()

    def _produce_output(self) -> None:
        if self.output is None:
            self.output = self.bag.snapshot()
            self._sync_public()

    def _declare_bag_complete(self) -> None:
        self._bag_complete = True
        self._flagged = True
        self._sync_public()

    # ------------------------------------------------------------------
    # meeting hook (information exchange of §4)
    # ------------------------------------------------------------------
    def on_meeting(self, event: MeetingEvent) -> None:
        participants = event.participants
        if len(participants) < 2:
            return
        name = self._name
        bag = self.bag
        peer_seen = self._peer_seen
        grew = False
        token_seen = False
        token_out = False
        # 1+2 fused: merge every other participant's bag, pick up the
        # completeness flag, and spot the token.  A peer whose snapshot is
        # *identical* to the one from our previous meeting with it has an
        # unchanged public state, so the whole exchange is a repeat — only
        # the token sighting (a count, not a state) recurs.
        for snap in participants:
            peer_name = snap.name
            if peer_name == name:
                continue
            cached = peer_seen.get(peer_name)
            if cached is not None and cached[0] is snap:
                if cached[1]:
                    token_seen = True
                    if cached[2]:
                        token_out = True
                continue
            public = snap.public
            peer_bag = public.get("bag", ())
            if cached is None or cached[3] is not peer_bag:
                if bag.merge(peer_bag):
                    grew = True
            if public.get("bag_complete"):
                self._flagged = True
            is_token = (
                self._token_label is not None
                and public.get("label") == self._token_label
            )
            token_done = False
            if is_token:
                token_seen = True
                if public.get("has_output") or public.get("bag_complete"):
                    token_out = True
                    token_done = True
            peer_seen[peer_name] = (snap, is_token, token_done, peer_bag)
        if token_seen:
            tracker = self._token_tracker
            if tracker is not None:
                # record_sighting, inlined: explorers re-sight the token at
                # nearly every meeting of the verification walks.
                tracker.sightings += 1
                tracker.last_was_at_node = event.node is not None
                if token_out:
                    self._token_has_output = True

        # 3. traveller transition rules (applied once, at the first qualifying
        #    meeting; the program acts on them at the next node it reaches).
        state = self.state
        if state == TRAVELLER and self._pending_transition is None:
            # "Heard of a smaller label" is a post-merge bag query: while an
            # agent is a traveller with no pending transition its own bag
            # minimum is still its own label (any earlier meeting that merged
            # a smaller label would have scheduled the ghost transition right
            # there), so after step 1 the minimum dips below ``self.label``
            # exactly when some other participant's bag held a smaller label.
            heard_smaller = bag.min_label() < self.label
            if heard_smaller:
                self._pending_transition = GHOST
            else:
                non_explorers = [
                    snap
                    for snap in participants
                    if snap.name != name
                    and snap.public.get("state") in (TRAVELLER, GHOST)
                ]
                if non_explorers:
                    self._pending_transition = EXPLORER
                    token = min(
                        non_explorers, key=lambda snap: snap.public.get("label")
                    )
                    self._token_label = token.public.get("label")
                    self._token_tracker = TokenTracker()
                    # The memo's is-token flags were computed before the
                    # token existed; drop them so the next meeting with each
                    # peer re-evaluates.
                    self._peer_seen.clear()

        # 4. a ghost (or any agent that has already stopped) outputs as soon
        #    as it has been told its bag is complete.
        if self._flagged and state == GHOST:
            self._produce_output()
        # ``on_meeting`` changes the public state only through bag growth or
        # a fresh output (which syncs itself); anything else needs no sync.
        if grew:
            self._sync_public()

    # ------------------------------------------------------------------
    # the agent program
    # ------------------------------------------------------------------
    def start(self, observation: Observation) -> AgentProgram:
        return self._program(observation)

    def _program(self, obs: Observation) -> AgentProgram:
        model = self._model
        # A dormant agent woken by a visit may already owe a transition.
        if self._pending_transition == GHOST:
            self._become_ghost()
            return

        # ----------------------------- traveller -------------------------
        rv_tape = Tape()
        rv_gen = rv_route(self.label, model, obs, rv_tape)
        rv_started = False
        rv_traversals = 0
        saved_obs = obs
        if self._pending_transition != EXPLORER:
            rv_action = next(rv_gen)
            rv_started = True
            rv_send = rv_gen.send
            while True:
                obs = yield rv_action
                rv_traversals += 1
                transition = self._pending_transition
                if transition is not None:
                    if transition == GHOST:
                        self._become_ghost()
                        return
                    saved_obs = obs  # transition == EXPLORER
                    break
                rv_action = rv_send(obs)
        else:
            saved_obs = obs

        # ----------------------------- explorer --------------------------
        self._set_state(EXPLORER)
        assert self._token_tracker is not None

        # Phase 1: ESST with the token; the final phase index bounds the size.
        esst_tape = Tape()
        obs, size_bound = yield from esst_procedure(
            model, esst_tape, saved_obs, self._token_tracker
        )

        # Phase 2: backtrack the whole Phase-1 walk, then resume RV-asynch-poly
        # until the rendezvous budget is reached or a smaller label is heard of.
        obs = yield from backtrack(esst_tape, 0, obs)
        budget = model.rendezvous_budget(size_bound, label_length(self.label))
        pending_obs = saved_obs
        while rv_traversals < budget and self.bag.min_label() >= self.label:
            if rv_started:
                rv_action = rv_gen.send(pending_obs)
            else:
                # The agent became an explorer before ever travelling (a
                # dormant agent woken in place): the just-started generator
                # must be primed — it already holds its initial observation.
                rv_action = next(rv_gen)
                rv_started = True
            pending_obs = yield rv_action
            rv_traversals += 1
        obs = pending_obs

        # Phase 3.
        if self.bag.min_label() < self.label:
            obs = yield from self._seek_token(size_bound, obs)
            if self._token_has_output or self._flagged:
                self._produce_output()
                self._become_ghost()
            else:
                self._become_ghost()
            return

        # Only the minimum-label agent is supposed to reach this point: one
        # full exploration collects every ghost's bag, the reverse exploration
        # spreads the completeness information.
        phase3_tape = Tape()
        mark = phase3_tape.mark()
        entry: Optional[int] = None
        for increment in model.uxs_terms(size_bound):
            port = next_port(entry, increment, obs.degree)
            obs = yield from step(phase3_tape, port)
            entry = obs.entry_port
        if self.bag.min_label() < self.label:
            # Defensive deviation (impossible in the paper's setting): the
            # forward pass revealed a smaller label after all, so this agent
            # is not the minimum and must not declare completeness.
            self._become_ghost()
            return
        self._declare_bag_complete()
        obs = yield from backtrack(phase3_tape, mark, obs)
        self._produce_output()
        self._set_state(GHOST)
        return

    # ------------------------------------------------------------------
    # helpers used by the program
    # ------------------------------------------------------------------
    def _become_ghost(self) -> None:
        self._set_state(GHOST)
        if self._flagged:
            self._produce_output()

    def _seek_token(self, size_bound: int, obs: Observation):
        """Phase 3 of a non-minimum explorer: walk ``R(E, s)`` until the token is met.

        If one pass of ``R(E, s)`` does not meet the token (which cannot
        happen when the exploration sequence for ``E`` is integral), the walk
        is repeated after backtracking, so the procedure cannot silently fail.
        """
        assert self._token_tracker is not None
        tape = Tape()
        sightings_before = self._token_tracker.sightings
        while self._token_tracker.sightings == sightings_before:
            mark = tape.mark()
            entry: Optional[int] = None
            for increment in self._model.uxs_terms(size_bound):
                port = next_port(entry, increment, obs.degree)
                obs = yield from step(tape, port)
                entry = obs.entry_port
                if self._token_tracker.sightings > sightings_before:
                    break
            if self._token_tracker.sightings == sightings_before:
                obs = yield from backtrack(tape, mark, obs)
        return obs
