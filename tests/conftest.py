from causalrefs.harness import Checker


class ProbedChecker(Checker):
    """A ``Checker`` that also calls a test's probes: ``on_apply(world, st,
    msg)`` after its own check of each application, and ``on_step(world,
    i, step)`` after its own check of each step. Pass it to a ``Run`` or to
    ``replay`` as ``checker=`` to watch every application or step."""

    def __init__(self, on_apply=None, on_step=None):
        super().__init__()
        self.probe_apply = on_apply
        self.probe_step = on_step

    def on_apply(self, world, st, msg) -> None:
        super().on_apply(world, st, msg)
        if self.probe_apply is not None:
            self.probe_apply(world, st, msg)

    def on_step(self, world, i: int, step) -> None:
        super().on_step(world, i, step)
        if self.probe_step is not None:
            self.probe_step(world, i, step)
