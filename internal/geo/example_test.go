package geo_test

import (
	"fmt"

	"repro/internal/geo"
)

// Example indexes two cities and runs a radius query from Baton Rouge.
func Example() {
	idx, err := geo.NewGridIndex[string](geo.BBox{
		MinLat: 28.9, MaxLat: 33.1, MinLon: -94.1, MaxLon: -88.8,
	}, 32, 32)
	if err != nil {
		fmt.Println("index:", err)
		return
	}
	batonRouge := geo.Point{Lat: 30.4515, Lon: -91.1871}
	newOrleans := geo.Point{Lat: 29.9511, Lon: -90.0715}
	_ = idx.Insert(batonRouge, "camera-br")
	_ = idx.Insert(newOrleans, "camera-no")

	for _, n := range idx.QueryRadius(batonRouge, 150) {
		fmt.Printf("%s at %.0f km\n", n.Value, n.DistanceKm)
	}
	// Output:
	// camera-br at 0 km
	// camera-no at 121 km
}
