package segstore

// TieredView is an immutable snapshot of a TieredStore's retained window,
// built by SnapshotView for estimate-side read replicas: the sealed chunks
// are shared by reference (each view holds one reference count per chunk,
// so the owner's eviction, ReleaseMapped and Close can never unmap,
// recycle or madvise a chunk under the view's count sweeps) and only the
// write buffer's filled rows are copied. Count queries run the same sweep
// as the store's and answer exactly what the store would have answered at
// snapshot time, bit-identically — the copy-on-write contract the serving
// layer's replica estimates pin.
//
// A view is safe for use by one reader goroutine at a time (the measure
// layer above serializes queries per estimator); different views are
// fully independent. Close releases the chunk references and is
// idempotent; a closed view may be recycled through the next SnapshotView.
type TieredView struct {
	Columns
	buf    *segment // the view's copy of the write buffer, reused across recycles
	closed bool
}

// SnapshotView freezes the store's retained window into an immutable view.
// Sealed chunks are retained by reference — O(chunks) pointer work — and
// the write buffer's filled rows (fewer than SegmentRows) are copied, so
// the cost is independent of the window size. Passing a previous view as
// recycle closes it and reuses its buffers; a steady-state publisher
// allocates nothing. Must be called by the store's owning goroutine (it
// reads the write buffer), which is also why the returned view observes a
// consistent window.
func (ts *TieredStore) SnapshotView(recycle *TieredView) *TieredView {
	if ts.closed {
		panic("segstore: SnapshotView on a closed store")
	}
	v := recycle
	if v != nil {
		v.Close()
	}
	if v == nil || v.series != ts.series || v.segRows != ts.segRows {
		v = &TieredView{buf: newBuffer(ts.series, ts.segRows, nil)}
		v.acc = make([]uint64, ts.segRows/wordBits)
	}
	v.closed = false
	v.Columns = Columns{
		series: ts.series, segRows: ts.segRows, capacity: ts.capacity,
		n: ts.n, retained: ts.retained,
		sealed: v.sealed[:0], active: v.buf, acc: v.acc,
	}
	ts.mu.Lock()
	v.sealed = append(v.sealed, ts.sealed...)
	for _, seg := range v.sealed {
		// The store's own reference is live (we hold its mutex and it is not
		// closed), so a plain increment cannot race a final release.
		seg.refs.Add(1)
	}
	ts.mu.Unlock()

	// A view holds no stage, so the store's staged rows go into the buffer
	// before it is copied. Rows past n in the buffer are never read (every
	// sweep stops at the window end), so only the filled words of each
	// column are copied.
	ts.flush()
	a, b := ts.active, v.buf
	used := (ts.n - a.base + wordBits - 1) / wordBits
	for i := range a.meta {
		off := a.meta[i].off
		copy(b.data[off:off+used], a.data[off:off+used])
		b.meta[i].pop = a.meta[i].pop
	}
	b.base = a.base
	return v
}

// Close releases the view's chunk references; the last holder of a chunk
// frees it. Idempotent; a closed view holds no chunks, reads as an empty
// window, and may be recycled through SnapshotView.
func (v *TieredView) Close() {
	if v.closed {
		return
	}
	v.closed = true
	for _, seg := range v.sealed {
		seg.release()
	}
	clear(v.sealed)
	v.sealed = v.sealed[:0]
	v.retained = 0
}
