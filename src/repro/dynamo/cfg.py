"""Dynamic control-flow graph built from the screening profile.

The CFG supplies the block-to-function mapping used by filter function
selection (paper section 3.3): Helium picks, as the kernel, the function
containing the most candidate instructions.
"""

from __future__ import annotations

from bisect import bisect_right

from .records import BlockProfile


class DynamicCFG:
    """Blocks, edges and a dynamic function assignment."""

    def __init__(self, profile: BlockProfile) -> None:
        self.profile = profile
        self._block_starts = sorted(profile.counts)

    # -- blocks ------------------------------------------------------------

    @property
    def blocks(self) -> list[int]:
        return list(self._block_starts)

    def predecessors(self, block: int) -> set[int]:
        return set(self.profile.predecessors.get(block, set()))

    def block_of_instruction(self, instruction_address: int) -> int | None:
        """The profiled block that contains an instruction address.

        Blocks are contiguous instruction ranges, so the containing block is
        the closest block start at or below the instruction address.
        """
        index = bisect_right(self._block_starts, instruction_address)
        if index == 0:
            return None
        return self._block_starts[index - 1]

    # -- functions ------------------------------------------------------------

    def functions(self) -> set[int]:
        """Entry addresses of dynamically observed functions (call targets)."""
        entries = set(self.profile.call_targets)
        entries.update(self.profile.block_function.values())
        return entries

    def function_of_block(self, block: int) -> int | None:
        return self.profile.block_function.get(block)

    def function_of_instruction(self, instruction_address: int) -> int | None:
        block = self.block_of_instruction(instruction_address)
        if block is None:
            return None
        return self.function_of_block(block)

    def blocks_in_function(self, entry: int) -> set[int]:
        return {block for block, fn in self.profile.block_function.items() if fn == entry}
