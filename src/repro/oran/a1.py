"""A1 Policy Management Service.

Implements the policy-type / policy-instance model of the A1-P service
(O-RAN.WG2.A1AP): the near-RT RIC side registers policy *types* with a
lightweight schema; the non-RT RIC side creates, replaces, queries and
deletes policy *instances*.  Instance changes are announced to
registered enforcement callbacks (the policy xApp).

A1-P requests travel over the bus: :class:`A1Client` (consumer side)
publishes :class:`~repro.oran.messages.A1PolicyRequest` on
``a1.request``, and :class:`A1Termination` (provider side) hands each
one to :meth:`A1PolicyService.handle` and publishes the
:class:`~repro.oran.messages.A1PolicyResponse` on ``a1.response``.
The runtime (:class:`~repro.oran.runtime.FleetRuntime`) shares one
policy service among all its cells, one policy instance per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any

from repro.oran.bus import post
from repro.oran.messages import A1PolicyRequest, A1PolicyResponse

#: Policy type id used for the EdgeBOL radio policies (airtime + MCS).
RADIO_POLICY_TYPE_ID = 20008


@dataclass(frozen=True)
class PolicyType:
    """A registered A1 policy type.

    ``schema`` maps field names to ``(min, max)`` numeric bounds — a
    deliberately small subset of JSON Schema sufficient for the radio
    policies of the paper.
    """

    type_id: int
    name: str
    schema: dict[str, tuple[float, float]] = field(default_factory=dict)

    def validate(self, body: dict[str, Any]) -> list[str]:
        """Return a list of validation errors (empty when valid)."""
        errors = []
        for key, (low, high) in self.schema.items():
            if key not in body:
                errors.append(f"missing field {key!r}")
                continue
            value = body[key]
            if not isinstance(value, (int, float)):
                errors.append(f"field {key!r} must be numeric")
            elif not low <= float(value) <= high:
                errors.append(f"field {key!r}={value} outside [{low}, {high}]")
        for key in body:
            if key not in self.schema:
                errors.append(f"unknown field {key!r}")
        return errors


class A1PolicyService:
    """The near-RT RIC's A1-P termination.

    Enforcement callbacks receive ``(policy_type_id, policy_id, body)``
    whenever an instance is created or replaced, and
    ``(policy_type_id, policy_id, None)`` on deletion.
    """

    def __init__(self) -> None:
        self._types: dict[int, PolicyType] = {}
        self._instances: dict[tuple[int, str], dict[str, Any]] = {}
        self._enforcers: list[Callable[[int, str, dict | None], None]] = []

    def register_type(self, policy_type: PolicyType) -> None:
        """Declare a policy type (idempotent by type id)."""
        self._types[policy_type.type_id] = policy_type

    def register_enforcer(
        self, callback: Callable[[int, str, dict | None], None]
    ) -> None:
        """Attach an enforcement hook (e.g. the policy xApp)."""
        self._enforcers.append(callback)

    def instances(self, policy_type_id: int) -> list[str]:
        """Instance ids deployed under ``policy_type_id``, sorted."""
        return sorted(
            pid for (tid, pid) in self._instances if tid == policy_type_id
        )

    def handle(self, request: A1PolicyRequest) -> A1PolicyResponse:
        """Process one A1-P request and return the HTTP-like response."""
        policy_type = self._types.get(request.policy_type_id)
        if policy_type is None:
            return A1PolicyResponse(
                request_id=request.message_id,
                status=404,
                body={"error": f"unknown policy type {request.policy_type_id}"},
            )
        key = (request.policy_type_id, request.policy_id)

        if request.operation == "GET":
            if key not in self._instances:
                return A1PolicyResponse(
                    request_id=request.message_id, status=404,
                    body={"error": "no such policy instance"},
                )
            return A1PolicyResponse(
                request_id=request.message_id, status=200,
                body=dict(self._instances[key]),
            )

        if request.operation == "DELETE":
            if key not in self._instances:
                return A1PolicyResponse(
                    request_id=request.message_id, status=404,
                    body={"error": "no such policy instance"},
                )
            del self._instances[key]
            for enforcer in self._enforcers:
                enforcer(request.policy_type_id, request.policy_id, None)
            return A1PolicyResponse(request_id=request.message_id, status=204)

        # PUT: create or replace.
        errors = policy_type.validate(request.body)
        if errors:
            return A1PolicyResponse(
                request_id=request.message_id, status=400,
                body={"errors": errors},
            )
        created = key not in self._instances
        self._instances[key] = dict(request.body)
        for enforcer in self._enforcers:
            enforcer(request.policy_type_id, request.policy_id, dict(request.body))
        return A1PolicyResponse(
            request_id=request.message_id,
            status=201 if created else 200,
        )


class A1Termination:
    """Provider side of A1-P over the bus.

    Subscribes to ``{prefix}a1.request``, lets the wrapped
    :class:`A1PolicyService` process each request (enforcement
    callbacks fire inside the consumer task) and publishes the
    response on ``{prefix}a1.response``.  The handler returns the
    response publish, so the consumer awaits it —
    responses are on the wire before the next request is consumed.
    """

    def __init__(self, bus, service: A1PolicyService, prefix: str = "") -> None:
        """Serve ``service`` over ``bus`` under the topic ``prefix``."""
        self.bus = bus
        self.service = service
        self.request_topic = f"{prefix}a1.request"
        self.response_topic = f"{prefix}a1.response"
        self.handled = 0
        bus.subscribe(self.request_topic, self._on_request)

    def _on_request(self, message: object):
        if not isinstance(message, A1PolicyRequest):
            raise TypeError(
                f"unexpected message on {self.request_topic}: {message!r}"
            )
        response = self.service.handle(message)
        self.handled += 1
        return self.bus.publish(self.response_topic, response)


class A1Client:
    """Consumer (non-RT RIC) side of A1-P over the bus.

    Publishes requests and indexes responses by request id.  A
    non-2xx response raises inside the response consumer — the bus'
    fail-fast contract: a rejected policy surfaces at the next drain
    instead of being silently ignored.
    """

    def __init__(self, bus, prefix: str = "") -> None:
        """Attach to ``bus`` under the ``prefix`` topic namespace."""
        self.bus = bus
        self.request_topic = f"{prefix}a1.request"
        self._responses: dict[int, A1PolicyResponse] = {}
        bus.subscribe(f"{prefix}a1.response", self._on_response)

    def send(self, request: A1PolicyRequest):
        """Publish one request (delivery completes at the next drain)."""
        return post(self.bus, self.request_topic, request)

    def _on_response(self, message: object) -> None:
        if not isinstance(message, A1PolicyResponse):
            raise TypeError(f"unexpected message on a1.response: {message!r}")
        self._responses[message.request_id] = message
        while len(self._responses) > 10_000:
            self._responses.pop(next(iter(self._responses)))
        if not message.ok:
            raise RuntimeError(
                f"A1 policy request {message.request_id} rejected: "
                f"status {message.status} {message.body}"
            )


def radio_policy_type(max_mcs: int = 28) -> PolicyType:
    """The EdgeBOL radio policy type: airtime share + MCS cap."""
    return PolicyType(
        type_id=RADIO_POLICY_TYPE_ID,
        name="edgebol-radio-policy",
        schema={
            "airtime": (0.0, 1.0),
            "max_mcs": (0, max_mcs),
        },
    )
