"""Stochastic failure models for the fault-injection layer.

The paper's §8 open problem — "issues of consistency and failures in
the data collection" — is about failures that are *correlated*: a
device driving through a coverage hole loses a run of consecutive
messages, not an i.i.d. sprinkle.  The classic two-state Gilbert–
Elliott chain captures exactly that: a GOOD state with (near-)zero
loss and a BAD state (fade, congested cell) where most messages die,
with geometric sojourn times in each.
"""

from __future__ import annotations

from dataclasses import dataclass


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass
class GilbertElliott:
    """Two-state Markov (bursty) loss model.

    ``p_good_to_bad`` / ``p_bad_to_good`` are per-message transition
    probabilities, so the mean burst length is ``1/p_bad_to_good``
    messages.  The chain steps once per message through
    :meth:`step`, drawing only from the RNG it is handed — the fault
    layer passes its own ``faults:loss`` stream, keeping every other
    stream of a same-seed run untouched.
    """

    p_good_to_bad: float = 0.05
    p_bad_to_good: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.9
    bad: bool = False

    def __post_init__(self) -> None:
        _check_probability("p_good_to_bad", self.p_good_to_bad)
        _check_probability("p_bad_to_good", self.p_bad_to_good)
        _check_probability("loss_good", self.loss_good)
        _check_probability("loss_bad", self.loss_bad)

    @property
    def state(self) -> str:
        return "bad" if self.bad else "good"

    def steady_state_loss(self) -> float:
        """Long-run loss fraction implied by the chain parameters."""
        p, q = self.p_good_to_bad, self.p_bad_to_good
        if p == 0.0 and q == 0.0:
            return self.loss_bad if self.bad else self.loss_good
        pi_bad = p / (p + q)
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def step(self, rng) -> bool:
        """Advance the chain one message; True means the message is lost."""
        if self.bad:
            if rng.random() < self.p_bad_to_good:
                self.bad = False
        else:
            if rng.random() < self.p_good_to_bad:
                self.bad = True
        loss = self.loss_bad if self.bad else self.loss_good
        if loss <= 0.0:
            return False
        return rng.random() < loss
