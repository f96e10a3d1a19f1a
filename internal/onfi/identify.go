package onfi

// ReadID issues the ONFI READ ID sequence (0x90 + address 0x00, five data
// bytes out) and delivers the identification bytes. Controllers run this at
// power-on for every chip — which is why a probe attached before boot
// learns the flash population (§3.1).
func (b *Bus) ReadID(chip int, done func([5]byte, error)) {
	c := b.checkChip(chip)
	b.wires.Acquire(func() {
		dur := b.emitCmdAt(chip, 0, CmdReadID, 0)
		dur += b.emitAddrAt(chip, 0, 0, dur)
		id := c.IDBytes()
		xfer := b.timing.TransferTime(len(id))
		if b.observed() {
			b.emit(BusEvent{
				Time: b.eng.Now() + dur, Dur: xfer, Bus: b.id, Chip: chip,
				Kind: EventDataOut, Len: len(id), Data: append([]byte(nil), id[:]...),
			})
		}
		dur += xfer
		b.eng.Schedule(dur, func() {
			b.wires.Release()
			if done != nil {
				done(id, nil)
			}
		})
	})
}

// ReadParameterPage issues the ONFI READ PARAMETER PAGE sequence (0xEC +
// address 0x00, tR, then the page out) and delivers the parameter page.
func (b *Bus) ReadParameterPage(chip int, done func([]byte, error)) {
	c := b.checkChip(chip)
	b.wires.Acquire(func() {
		dur := b.emitCmdAt(chip, 0, CmdReadParamPage, 0)
		dur += b.emitAddrAt(chip, 0, 0, dur)
		b.eng.Schedule(dur, func() {
			b.emitEdge(chip, 0, EventBusy)
			b.wires.Release()
			b.eng.Schedule(b.timing.ReadPage, func() {
				page := c.ParameterPage()
				b.emitEdge(chip, 0, EventReady)
				b.wires.Acquire(func() {
					xfer := b.timing.TransferTime(len(page))
					if b.observed() {
						b.emit(BusEvent{
							Time: b.eng.Now(), Dur: xfer, Bus: b.id, Chip: chip,
							Kind: EventDataOut, Len: len(page), Data: append([]byte(nil), page...),
						})
					}
					b.eng.Schedule(xfer, func() {
						b.wires.Release()
						if done != nil {
							done(page, nil)
						}
					})
				})
			})
		})
	})
}
