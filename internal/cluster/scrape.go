package cluster

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// scrapeLiveWorkers fetches every live worker's /metrics in parallel and
// returns the lines of those that answered, by worker ID. Scrapes are bounded
// by scrapeTimeout so one hung or dead worker cannot stall the merged view;
// a failed scrape ejects nobody (liveness is the heartbeat's job, not the
// scraper's).
func (c *Coordinator) scrapeLiveWorkers() map[string]map[string]int64 {
	client := &http.Client{Timeout: scrapeTimeout}
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		out = map[string]map[string]int64{}
	)
	for _, wk := range c.reg.liveWorkers() {
		wg.Add(1)
		go func(wk WorkerInfo) {
			defer wg.Done()
			if m, ok := scrapeMetrics(client, wk.URL); ok {
				mu.Lock()
				out[wk.ID] = m
				mu.Unlock()
			}
		}(wk)
	}
	wg.Wait()
	return out
}

// scrapeMetrics fetches one worker's /metrics and parses its
// "name value" lines.
func scrapeMetrics(client *http.Client, baseURL string) (map[string]int64, bool) {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out, true
}
