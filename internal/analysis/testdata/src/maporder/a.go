// Fixture for the maporder analyzer: order-sensitive work inside
// `for range` over a map.
package maporder

import "sort"

func channelSend(m map[int]int, ch chan int) {
	for k := range m {
		ch <- k // want `channel send inside .for range. over a map`
	}
}

type emitter struct{}

func (emitter) Send(int)      {}
func (emitter) Observe(int)   {}
func (emitter) Broadcast(int) {}

func emits(m map[int]int, e emitter) {
	for k := range m {
		e.Send(k)    // want `Send call inside .for range. over a map`
		e.Observe(k) // ok: not an emission method
	}
}

func floatAccum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v // want `floating-point accumulation into "sum"`
	}
	return sum
}

func floatAccumPlain(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total = total + v // want `floating-point accumulation into "total"`
	}
	return total
}

func intAccum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v // ok: integer addition is associative, order cannot change the result
	}
	return n
}

func escapingAppend(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) // want `append to "out" \(declared outside the loop\)`
	}
	return out
}

func collectKeys(m map[int]string) []string {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k) // ok: the blessed collect-then-sort idiom
	}
	sort.Ints(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k]) // ok: slice iteration, not a map
	}
	return out
}

func loopLocalAppend(m map[int]string) {
	for _, v := range m {
		tmp := []string{}
		tmp = append(tmp, v) // ok: tmp does not outlive the iteration
		_ = tmp
	}
}
