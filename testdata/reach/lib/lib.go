// Package lib holds one declaration per resolution rule of the
// reachability guard; cmd/app is the program that reads it.
package lib

// Dataset.Join shares its name with strings.Join, which the program calls.
type Dataset struct{ rows []string }

func (d *Dataset) Join(other *Dataset) *Dataset {
	return &Dataset{rows: append(d.rows, other.rows...)}
}

// Counter.Inc is reached only as a method value.
type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

// Square.Area is reached only through Shape; nothing calls Perimeter.
type Shape interface {
	Area() float64
	Perimeter() float64
}

type Square struct{ Side float64 }

func (s Square) Area() float64      { return s.Side * s.Side }
func (s Square) Perimeter() float64 { return 4 * s.Side }

// Box.Get is reached through the instantiation Box[int]; Unused is not.
type Box[T any] struct{ v T }

func (b *Box[T]) Get() T  { return b.v }
func (b *Box[T]) Unused() {}

// Step is a sealed interface: Move's marker method is reached with it.
type Step interface{ isStep() }

type Move struct{}

func (Move) isStep() {}

// Options.Shortcut is a field the program reads; Config.Shortcut is a method
// of the same name that nothing calls.
type Options struct{ Shortcut int }

type Config struct{}

func (Config) Shortcut() int { return 0 }
