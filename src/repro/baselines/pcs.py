"""Piggyback CrowdSensing (PCS) — Lane et al., SenSys'13.

At each sampling instant every participating device consults its app-
usage predictor:

- With probability ``accuracy`` the prediction is *correct*: the
  client holds the sample and piggybacks the upload onto the user's
  next app session (the upload rides the already-active radio, costing
  only the marginal transfer).  If no session materialises before the
  sample's deadline, the client falls back to a deadline upload.
- With probability ``1 − accuracy`` the prediction is *wrong*: the
  client learns nothing useful and uploads at the deadline from an
  idle radio, paying the full promotion + tail.

The paper evaluates PCS at the 40% top-1-app saturation accuracy it
reads off Lane et al.'s Figure 8 and sweeps the knob to 100% in its
Figure 14; :class:`PCSFramework` exposes the same knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.baselines.common import BaselineFramework
from repro.cellular.network import CellularNetwork
from repro.cellular.packets import TrafficCategory
from repro.cellular.rrc import RRCState
from repro.core.tasks import SensingRequest
from repro.devices.device import SimDevice
from repro.sim.engine import Simulator
from repro.sim.events import Event

#: How long after a session opens the piggybacked upload goes out —
#: enough for the session's own packets to have activated the radio.
PIGGYBACK_DELAY_S = 0.5

#: Safety margin before the deadline for fallback uploads.
FALLBACK_GRACE_S = 2.0


@dataclass
class _Obligation:
    """One pending sample on one device."""

    request: SensingRequest
    piggyback: bool
    fallback_timer: Optional[Event] = None
    done: bool = False


class PCSFramework(BaselineFramework):
    """PCS with a configurable prediction accuracy."""

    name = "pcs"

    def __init__(
        self,
        sim: Simulator,
        network: CellularNetwork,
        devices: Sequence[SimDevice],
        *,
        accuracy: float = 0.40,
        oracle_sessions: bool = False,
    ) -> None:
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy!r}")
        super().__init__(sim, network, devices)
        self.accuracy = accuracy
        #: The paper's Fig.-14 "energy cost model for PCS": a correct
        #: prediction *guarantees* a piggyback opportunity (the user
        #: session the predictor foresaw materialises somewhere in the
        #: window).  Under the default (False), a correct prediction
        #: only pays off if the user actually opens an app before the
        #: deadline — the physically honest model.
        self.oracle_sessions = oracle_sessions
        self._pending: Dict[str, List[_Obligation]] = {
            d.device_id: [] for d in self._devices
        }
        self._rngs = {
            d.device_id: sim.rng.stream(f"pcs:{d.device_id}") for d in self._devices
        }
        self._by_id = {d.device_id: d for d in self._devices}
        for device in self._devices:
            device.traffic.add_session_listener(
                self._make_session_listener(device.device_id)
            )

    def pending_count(self, device_id: str) -> int:
        return sum(1 for ob in self._pending[device_id] if not ob.done)

    # ------------------------------------------------------------------
    # Obligation lifecycle
    # ------------------------------------------------------------------

    def _handle_obligation(self, device: SimDevice, request: SensingRequest) -> None:
        rng = self._rngs[device.device_id]
        predicted_correctly = rng.random() < self.accuracy
        obligation = _Obligation(request=request, piggyback=predicted_correctly)
        self._pending[device.device_id].append(obligation)
        if predicted_correctly and device.modem.state in (
            RRCState.ACTIVE,
            RRCState.PROMOTING,
        ):
            # The predicted session is happening right now.
            self._complete(device, obligation, piggybacked=True)
            return
        if predicted_correctly and self.oracle_sessions:
            self._schedule_oracle_session(device, obligation)
            return
        fire_at = max(self._sim.now, request.deadline - FALLBACK_GRACE_S)
        obligation.fallback_timer = self._sim.schedule_at(
            fire_at, self._fallback, device.device_id, obligation
        )

    def _schedule_oracle_session(
        self, device: SimDevice, obligation: _Obligation
    ) -> None:
        """Materialise the predicted user session somewhere in the window.

        The session's own traffic is the user's (background category);
        the upload rides it and is charged only the piggyback marginal
        — exactly the assumption behind the paper's Fig.-14 model.
        """
        rng = self._rngs[device.device_id]
        window = max(0.0, obligation.request.deadline - self._sim.now)
        offset = rng.uniform(0.0, 0.8 * window)
        obligation.done = True

        def run_session() -> None:
            device.modem.transmit(2000, TrafficCategory.BACKGROUND)
            self._sim.schedule(
                PIGGYBACK_DELAY_S, self._finish_piggyback, device, obligation
            )

        self._sim.schedule(offset, run_session)

    def _make_session_listener(self, device_id: str):
        def on_session(start_time: float) -> None:
            self._on_session(device_id)

        return on_session

    def _on_session(self, device_id: str) -> None:
        device = self._by_id[device_id]
        for obligation in list(self._pending[device_id]):
            if obligation.done or not obligation.piggyback:
                continue
            if self._sim.now + PIGGYBACK_DELAY_S >= obligation.request.deadline:
                continue  # too late to ride this session; fallback will fire
            obligation.done = True
            self._cancel_timer(obligation)
            self._sim.schedule(
                PIGGYBACK_DELAY_S, self._finish_piggyback, device, obligation
            )
        self._prune(device_id)

    def _finish_piggyback(self, device: SimDevice, obligation: _Obligation) -> None:
        self.stats.uploads_piggybacked += 1
        self._upload(device, obligation.request)

    def _fallback(self, device_id: str, obligation: _Obligation) -> None:
        if obligation.done:
            return
        device = self._by_id[device_id]
        self._complete(device, obligation, piggybacked=False)
        self._prune(device_id)

    def _complete(
        self, device: SimDevice, obligation: _Obligation, *, piggybacked: bool
    ) -> None:
        obligation.done = True
        self._cancel_timer(obligation)
        if piggybacked:
            self.stats.uploads_piggybacked += 1
        else:
            self.stats.uploads_forced += 1
        self._upload(device, obligation.request)

    def _cancel_timer(self, obligation: _Obligation) -> None:
        if obligation.fallback_timer is not None:
            self._sim.cancel(obligation.fallback_timer)
            obligation.fallback_timer = None

    def _prune(self, device_id: str) -> None:
        self._pending[device_id] = [
            ob for ob in self._pending[device_id] if not ob.done
        ]
