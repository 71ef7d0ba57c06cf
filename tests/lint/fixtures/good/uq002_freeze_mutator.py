# uqlint fixture: good twin of bad/uq002_freeze_mutator.py — freeze builds
# its snapshot without touching the working state; fold_into, the one
# sanctioned mutator, updates it in place.


class UQADT:
    pass


class TombstoneSetSpec(UQADT):
    name = "tombstone-set"

    def initial_state(self) -> frozenset:
        return frozenset()

    def apply(self, state, update):
        return state | {update.args[0]}

    def observe(self, state, name, args=()):
        return frozenset(state)

    def thaw(self, state):
        return set(state)

    def fold_into(self, work, updates):
        for u in updates:
            work.add(u.args[0])
        return work

    def freeze(self, work):
        return frozenset(work) - {None}
