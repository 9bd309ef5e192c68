//! Imperative construction of [`Method`] bodies.
//!
//! Used by the AST lowerer and by tests that build IR directly.

use crate::instr::{ConstValue, Instr, Terminator};
use crate::program::{Block, BlockId, ClassId, Method, Temp};
use oi_support::{IdxVec, Symbol};

/// Builds one method body block-by-block.
///
/// # Examples
///
/// ```
/// use oi_ir::builder::FunctionBuilder;
/// use oi_ir::{ConstValue, Instr, Terminator, ClassId};
/// # let mut interner = oi_support::Interner::new();
/// let mut b = FunctionBuilder::new(interner.intern("f"), ClassId::new(0), 1);
/// let t = b.new_temp();
/// b.push(Instr::Const { dst: t, value: ConstValue::Int(7) });
/// b.terminate(Terminator::Return(t));
/// let method = b.finish();
/// assert_eq!(method.param_count, 1);
/// assert_eq!(method.blocks.len(), 1);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    name: Symbol,
    class: ClassId,
    param_count: u32,
    next_temp: u32,
    blocks: IdxVec<BlockId, Block>,
    current: BlockId,
}

impl FunctionBuilder {
    /// Starts a new method with `param_count` declared parameters.
    ///
    /// Temps `0..=param_count` are pre-allocated for `self` and the
    /// parameters; the entry block is created and made current.
    pub fn new(name: Symbol, class: ClassId, param_count: u32) -> Self {
        let mut blocks = IdxVec::new();
        let entry = blocks.push(Block::default());
        Self {
            name,
            class,
            param_count,
            next_temp: param_count + 1,
            blocks,
            current: entry,
        }
    }

    /// Allocates a fresh temp.
    pub fn new_temp(&mut self) -> Temp {
        let t = Temp::new(self.next_temp as usize);
        self.next_temp += 1;
        t
    }

    /// The temp holding `self`.
    pub fn self_temp(&self) -> Temp {
        Temp::new(0)
    }

    /// The temp holding parameter `i` (0-based).
    pub fn param_temp(&self, i: u32) -> Temp {
        assert!(i < self.param_count, "parameter index out of range");
        Temp::new(1 + i as usize)
    }

    /// Creates a new (empty, unterminated) block without switching to it.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default())
    }

    /// Makes `bb` the current insertion point.
    ///
    /// # Panics
    ///
    /// Panics if `bb` was not created by this builder.
    pub fn switch_to(&mut self, bb: BlockId) {
        assert!(self.blocks.contains_id(bb), "unknown block");
        self.current = bb;
    }

    /// Returns `true` if the current block already has a terminator.
    pub fn is_terminated(&self) -> bool {
        !matches!(self.blocks[self.current].term, Terminator::Unterminated)
    }

    /// Appends an instruction to the current block.
    ///
    /// Instructions after a terminator would be unreachable; pushing onto a
    /// terminated block is silently dropped (this happens with code after
    /// `return`, which the language permits).
    pub fn push(&mut self, instr: Instr) {
        if !self.is_terminated() {
            self.blocks[self.current].instrs.push(instr);
        }
    }

    /// Convenience: materialize a constant into a fresh temp.
    pub fn push_const(&mut self, value: ConstValue) -> Temp {
        let dst = self.new_temp();
        self.push(Instr::Const { dst, value });
        dst
    }

    /// Sets the current block's terminator if it does not have one yet.
    pub fn terminate(&mut self, term: Terminator) {
        if !self.is_terminated() {
            self.blocks[self.current].term = term;
        }
    }

    /// Finishes the method. Any still-unterminated block gets
    /// `return nil` appended (via a dedicated nil temp), so the result always
    /// verifies.
    pub fn finish(mut self) -> Method {
        // A single shared nil temp for implicit returns.
        let mut nil_temp = None;
        for bb in self.blocks.ids().collect::<Vec<_>>() {
            if matches!(self.blocks[bb].term, Terminator::Unterminated) {
                let t = *nil_temp.get_or_insert_with(|| {
                    let t = Temp::new(self.next_temp as usize);
                    self.next_temp += 1;
                    t
                });
                self.blocks[bb].instrs.push(Instr::Const {
                    dst: t,
                    value: ConstValue::Nil,
                });
                self.blocks[bb].term = Terminator::Return(t);
            }
        }
        Method {
            name: self.name,
            class: self.class,
            param_count: self.param_count,
            temp_count: self.next_temp,
            blocks: self.blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oi_support::Interner;

    fn builder() -> (Interner, FunctionBuilder) {
        let mut i = Interner::new();
        let name = i.intern("f");
        (i, FunctionBuilder::new(name, ClassId::new(0), 2))
    }

    #[test]
    fn params_are_preallocated() {
        let (_, b) = builder();
        assert_eq!(b.self_temp().index(), 0);
        assert_eq!(b.param_temp(0).index(), 1);
        assert_eq!(b.param_temp(1).index(), 2);
    }

    #[test]
    fn fresh_temps_after_params() {
        let (_, mut b) = builder();
        assert_eq!(b.new_temp().index(), 3);
        assert_eq!(b.new_temp().index(), 4);
    }

    #[test]
    fn unterminated_blocks_get_return_nil() {
        let (_, mut b) = builder();
        let other = b.new_block();
        b.switch_to(other);
        let m = b.finish();
        for blk in m.blocks.iter() {
            assert!(matches!(blk.term, Terminator::Return(_)));
        }
        // Both blocks share the synthesized nil temp.
        assert_eq!(m.temp_count, 4);
    }

    #[test]
    fn pushes_after_terminator_are_dropped() {
        let (_, mut b) = builder();
        let t = b.push_const(ConstValue::Int(1));
        b.terminate(Terminator::Return(t));
        b.push(Instr::Move { dst: t, src: t });
        let m = b.finish();
        assert_eq!(m.blocks[m.entry()].instrs.len(), 1);
    }

    #[test]
    fn double_terminate_keeps_first() {
        let (_, mut b) = builder();
        let t = b.push_const(ConstValue::Int(1));
        b.terminate(Terminator::Return(t));
        b.terminate(Terminator::Jump(BlockId::new(0)));
        let m = b.finish();
        assert!(matches!(m.blocks[m.entry()].term, Terminator::Return(_)));
    }
}
