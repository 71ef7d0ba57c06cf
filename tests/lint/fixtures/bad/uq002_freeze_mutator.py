# uqlint fixture: UQ002 — freeze prunes the working state it snapshots.
# thaw and freeze are pure like T and G; only fold_into may mutate.


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
        work.discard(None)  # changes the replica's live working state
        return frozenset(work)
