package modlog

import (
	"fmt"
	"sort"

	"repro/internal/table"
)

// EventColumns is the struct-of-arrays form of []Event: times
// delta-encoded (the log is time-sorted), users and modules
// dictionary-encoded.
type EventColumns struct {
	times    []int64
	years    []int32
	users    []uint32
	modules  []uint32
	userDict table.Dict
	modDict  table.Dict
}

// Append implements table.Columns.
func (c *EventColumns) Append(e Event) {
	c.times = append(c.times, e.Time)
	c.years = append(c.years, int32(e.Year))
	c.users = append(c.users, c.userDict.Code(e.User))
	c.modules = append(c.modules, c.modDict.Code(e.Module))
}

// Len implements table.Columns.
func (c *EventColumns) Len() int { return len(c.times) }

// Row implements table.Columns.
func (c *EventColumns) Row(i int) Event {
	return Event{
		Time:   c.times[i],
		Year:   int(c.years[i]),
		User:   c.userDict.Value(c.users[i]),
		Module: c.modDict.Value(c.modules[i]),
	}
}

// reset empties the columns for DecodeFrom.
func (c *EventColumns) reset() {
	c.times, c.years = c.times[:0], c.years[:0]
	c.users, c.modules = c.users[:0], c.modules[:0]
	c.userDict.Reset()
	c.modDict.Reset()
}

// EncodeTo implements table.Columns.
func (c *EventColumns) EncodeTo(w *table.Writer) error {
	c.userDict.EncodeTo(w)
	c.modDict.EncodeTo(w)
	w.Uvarint(uint64(len(c.times)))
	prev := int64(0)
	for i := range c.times {
		w.Varint(c.times[i] - prev)
		prev = c.times[i]
		w.Varint(int64(c.years[i]))
		w.Uvarint(uint64(c.users[i]))
		w.Uvarint(uint64(c.modules[i]))
	}
	return w.Err()
}

// eventRowMinBytes is the least an event row takes on the wire: four
// varints of at least one byte each.
const eventRowMinBytes = 4

// DecodeFrom implements table.Columns. Every column is sized once from
// the row count, which the unread bytes bound.
func (c *EventColumns) DecodeFrom(r *table.Reader) error {
	c.reset()
	c.userDict.DecodeFrom(r)
	c.modDict.DecodeFrom(r)
	n := r.Count("event rows", eventRowMinBytes)
	c.times, c.years = table.Resize(c.times, n), table.Resize(c.years, n)
	c.users, c.modules = table.Resize(c.users, n), table.Resize(c.modules, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		prev += r.Varint()
		c.times[i] = prev
		c.years[i] = int32(r.Varint())
		c.users[i] = uint32(r.Uvarint())
		c.modules[i] = uint32(r.Uvarint())
	}
	if err := r.Err(); err != nil {
		return err
	}
	// A code outside its dictionary would panic Row: refuse it here.
	if err := c.userDict.Check(c.users); err != nil {
		return fmt.Errorf("modlog: users: %w", err)
	}
	if err := c.modDict.Check(c.modules); err != nil {
		return fmt.Errorf("modlog: modules: %w", err)
	}
	return nil
}

// MemBytes implements table.Columns.
func (c *EventColumns) MemBytes() int {
	return len(c.times)*(8+4+4+4) + c.userDict.MemBytes() + c.modDict.MemBytes()
}

// EventCodec binds Event to its columnar form.
type EventCodec struct{}

// NewColumns implements table.Codec.
func (EventCodec) NewColumns(n int) table.Columns[Event] {
	return &EventColumns{
		times: make([]int64, 0, n), years: make([]int32, 0, n),
		users: make([]uint32, 0, n), modules: make([]uint32, 0, n),
	}
}

// DecodeLen implements table.HoldCodec: it skips the two dictionaries
// DecodeFrom reads first and returns the row count that follows them.
func (EventCodec) DecodeLen(r *table.Reader) int {
	table.SkipDict(r)
	table.SkipDict(r)
	return r.Count("event rows", eventRowMinBytes)
}

// EventTable is the streaming form of a module-load log.
type EventTable = table.Table[Event]

// AggregateByYearTable is the shard-parallel, streaming equivalent of
// AggregateByYear. The aggregation is pure set union — (year, user) →
// module sets — so it is order-free: per-shard partials merge by set
// union in ascending shard order, and the final shares are computed
// from the merged sets exactly as the slice version does. Output is
// identical for any shard count (pinned by tests).
func AggregateByYearTable(t EventTable, shards int) ([]YearShares, error) {
	type key struct {
		year int
		user string
	}
	type partial struct {
		usersPerYear map[int]map[string]bool
		loads        map[key]map[string]bool
	}
	merged, err := table.ShardFold[Event](t, shards,
		func() *partial {
			return &partial{
				usersPerYear: map[int]map[string]bool{},
				loads:        map[key]map[string]bool{},
			}
		},
		func(p *partial, e Event) *partial {
			if p.usersPerYear[e.Year] == nil {
				p.usersPerYear[e.Year] = map[string]bool{}
			}
			p.usersPerYear[e.Year][e.User] = true
			k := key{e.Year, e.User}
			if p.loads[k] == nil {
				p.loads[k] = map[string]bool{}
			}
			p.loads[k][e.Name()] = true
			return p
		},
		func(a, b *partial) *partial {
			for y, users := range b.usersPerYear {
				if a.usersPerYear[y] == nil {
					a.usersPerYear[y] = users
					continue
				}
				for u := range users {
					a.usersPerYear[y][u] = true
				}
			}
			for k, mods := range b.loads {
				if a.loads[k] == nil {
					a.loads[k] = mods
					continue
				}
				for m := range mods {
					a.loads[k][m] = true
				}
			}
			return a
		})
	if err != nil {
		return nil, err
	}
	years := make([]int, 0, len(merged.usersPerYear))
	for y := range merged.usersPerYear {
		years = append(years, y)
	}
	sort.Ints(years)
	out := make([]YearShares, 0, len(years))
	for _, y := range years {
		users := merged.usersPerYear[y]
		counts := make(map[string]int, 64)
		for user := range users {
			for name := range merged.loads[key{y, user}] {
				counts[name]++
			}
		}
		shares := make(map[string]float64, len(counts))
		for name, c := range counts {
			shares[name] = float64(c) / float64(len(users))
		}
		out = append(out, YearShares{Year: y, Users: len(users), Shares: shares})
	}
	return out, nil
}
