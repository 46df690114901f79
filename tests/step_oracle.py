"""The event-driven step runner that `tcpsbench.loopsim.run_step_experiment`
replaced, kept as its oracle.

Every packet delivery and controller check is an event on the virtual clock,
and the Operator and Plant state machines exchange real packets. The runner
in `tcpsbench.loopsim` computes the same record as a timing skeleton plus a
value recurrence; `tests/test_skeleton.py` matches the two bit for bit.
"""

from dataclasses import replace

from tcpsbench.clock import PRIO_CONTROL, EventScheduler
from tcpsbench.loopsim import LoopConfig, Operator, Plant, StepExperimentRecord
from tcpsbench.transport import BACKWARD, FORWARD, Packet


def run_step_on_clock(cfg: LoopConfig, channel) -> StepExperimentRecord:
    """One sweep as events on the virtual clock: the clock orders all
    deliveries ahead of controller checks at equal instants, the operator
    polls non-blocking with last-value hold, and stale packets (older
    sequence than the newest seen) are discarded on both sides.
    """
    sched = EventScheduler()
    channel.bind(sched)
    operator = Operator(cfg)
    plant = Plant(cfg)
    trace: list[tuple[float, float, float]] = []
    inbox: list[Packet | None] = [None]  # freshest feedback since the last check
    op_stale = 0
    done = False

    def deliver_feedback(pkt: Packet) -> None:
        nonlocal op_stale
        held = inbox[0]
        if pkt.seq <= (held.seq if held is not None else operator.fb_seq_seen):
            op_stale += 1
            return
        inbox[0] = pkt

    def deliver_command(pkt: Packet) -> None:
        fb = plant.on_command(pkt, sched.now)
        if fb is not None:
            channel.send(BACKWARD, fb, cfg.packet_size_b, deliver_feedback)

    def send(pkt: Packet) -> None:
        trace.append((sched.now, operator.x, operator.y))
        channel.send(FORWARD, pkt, cfg.packet_size_b, deliver_command)

    def check() -> None:
        nonlocal done
        pkt = operator.tick(inbox[0])
        inbox[0] = None
        if pkt is None:
            done = True
            return
        send(pkt)
        sched.schedule(sched.now + cfg.delta_ms, check, PRIO_CONTROL)

    send(operator.command())
    sched.schedule(cfg.delta_ms, check, PRIO_CONTROL)
    sched.run(stop=lambda: done)
    # let in-flight packets land so the plant log covers the whole sweep
    channel.begin_drain()
    sched.run()

    stats = {FORWARD: replace(channel.stats[FORWARD], stale=plant.stale),
             BACKWARD: replace(channel.stats[BACKWARD], stale=op_stale)}
    return StepExperimentRecord(curve=plant.curve(), operator_trace=trace, channel_stats=stats)
